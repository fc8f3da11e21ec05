package graph

// Radii estimates the graph's diameter by running a multi-source BFS
// from up to 64 sample sources simultaneously, Ligra-style: each vertex
// carries a 64-bit visited mask (one bit per source) and a radius
// estimate. Each round propagates masks along edges; a vertex whose
// mask grows updates its radius to the current round.
//
// The mask propagation next[u] |= cur[v] is an irregular commutative
// (bitwise-OR) update — the paper's representative of graph kernels
// that process only a subset of vertices each iteration.

// RadiiResult carries per-vertex eccentricity estimates and the
// estimated diameter.
type RadiiResult struct {
	Radii    []int32
	Diameter int32
	Rounds   int
}

// radiiSources picks up to 64 well-spread sources.
func radiiSources(n int) []uint32 {
	k := 64
	if n < k {
		k = n
	}
	srcs := make([]uint32, k)
	for i := range srcs {
		srcs[i] = uint32(i * n / k)
	}
	return srcs
}

// Radii runs the multi-source BFS on g (treated as directed; use an
// undirected/symmetrized graph for true radii), pushing masks along
// out-edges.
func Radii(g *CSR, maxRounds int) *RadiiResult {
	n := g.N
	cur := make([]uint64, n)
	next := make([]uint64, n)
	radii := make([]int32, n)
	for i := range radii {
		radii[i] = -1
	}
	for i, s := range radiiSources(n) {
		cur[s] |= 1 << uint(i)
		radii[s] = 0
	}
	res := &RadiiResult{}
	for round := int32(1); int(round) <= maxRounds; round++ {
		copy(next, cur)
		changed := false
		for v := uint32(0); int(v) < n; v++ {
			m := cur[v]
			if m == 0 {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if m&^next[u] != 0 { // irregular read-modify-write
					next[u] |= m
					if radii[u] < round {
						radii[u] = round
					}
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		cur, next = next, cur
		res.Rounds++
	}
	res.Radii = radii
	for _, r := range radii {
		if r > res.Diameter {
			res.Diameter = r
		}
	}
	return res
}
