package graph

import (
	"testing"
	"testing/quick"

	"cobra/internal/pb"
)

// refComponents computes components by repeated BFS over the
// undirected view — independent ground truth for label propagation.
func refComponents(g *CSR) []uint32 {
	und := undirected(g)
	comp := make([]uint32, g.N)
	for i := range comp {
		comp[i] = ^uint32(0)
	}
	for s := uint32(0); int(s) < g.N; s++ {
		if comp[s] != ^uint32(0) {
			continue
		}
		// BFS labeling the component with its minimum vertex ID (= s,
		// since we scan ascending).
		frontier := []uint32{s}
		comp[s] = s
		for len(frontier) > 0 {
			var next []uint32
			for _, v := range frontier {
				for _, u := range und.Neighbors(v) {
					if comp[u] == ^uint32(0) {
						comp[u] = s
						next = append(next, u)
					}
				}
			}
			frontier = next
		}
	}
	return comp
}

// undirected symmetrizes g.
func undirected(g *CSR) *CSR {
	edges := make([]Edge, 0, 2*g.M())
	for v := uint32(0); int(v) < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			edges = append(edges, Edge{v, u}, Edge{u, v})
		}
	}
	return BuildCSR(&EdgeList{N: g.N, Edges: edges}, false, pb.Options{})
}

func TestConnectedComponentsMatchesBFS(t *testing.T) {
	// A graph guaranteed to have multiple components: two disjoint grids.
	el := Grid(8, 8, 0, 1)
	shift := uint32(64)
	edges := append([]Edge(nil), el.Edges...)
	for _, e := range el.Edges {
		edges = append(edges, Edge{e.Src + shift, e.Dst + shift})
	}
	g := BuildCSR(&EdgeList{N: 128, Edges: edges}, false, pb.Options{})
	want := refComponents(g)
	got := ConnectedComponents(g)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("component[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if got[0] == got[64+0] {
		t.Fatal("disjoint grids merged")
	}
}

func TestConnectedComponentsPBMatches(t *testing.T) {
	el := RMAT(9, 4, 3)
	g := BuildCSR(el, false, pb.Options{})
	a := ConnectedComponents(g)
	b := ConnectedComponentsPB(g, pb.Options{NumBins: 16, Workers: 4})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("PB components differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestConnectedComponentsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		el := Uniform(n, 2*n, seed)
		g := BuildCSR(el, false, pb.Options{})
		got := ConnectedComponents(g)
		want := refComponents(g)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// refSSSP is Dijkstra-ish via repeated relaxation over the same
// pseudo-weights (a correct but simple reference).
func refSSSP(g *CSR, source uint32) []int64 {
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = InfDist
	}
	dist[source] = 0
	for iter := 0; iter < g.N; iter++ {
		changed := false
		for v := uint32(0); int(v) < g.N; v++ {
			if dist[v] == InfDist {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if d := dist[v] + int64(EdgeWeight(v, u)); d < dist[u] {
					dist[u] = d
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestSSSPMatchesReference(t *testing.T) {
	el := RMAT(9, 6, 5)
	g := BuildCSR(el, false, pb.Options{})
	want := refSSSP(g, 0)
	got := SSSP(g, 0)
	gotPB := SSSPPB(g, 0, pb.Options{NumBins: 16, Workers: 4})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SSSP[%d] = %d, want %d", i, got[i], want[i])
		}
		if gotPB[i] != want[i] {
			t.Fatalf("SSSPPB[%d] = %d, want %d", i, gotPB[i], want[i])
		}
	}
}

func TestSSSPUnreachable(t *testing.T) {
	el := &EdgeList{N: 3, Edges: []Edge{{0, 1}}}
	g := BuildCSR(el, false, pb.Options{})
	d := SSSP(g, 0)
	if d[0] != 0 || d[1] == InfDist || d[2] != InfDist {
		t.Fatalf("dist = %v", d)
	}
}

func TestSSSPTriangleInequalityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		el := Uniform(40, 160, seed)
		g := BuildCSR(el, false, pb.Options{})
		d := SSSP(g, 0)
		// Relaxed final state: no edge can still improve a distance.
		for v := uint32(0); int(v) < g.N; v++ {
			if d[v] == InfDist {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if d[v]+int64(EdgeWeight(v, u)) < d[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeWeightRangeAndDeterminism(t *testing.T) {
	for v := uint32(0); v < 100; v++ {
		for u := uint32(0); u < 10; u++ {
			w := EdgeWeight(v, u)
			if w < 1 || w > 8 {
				t.Fatalf("weight(%d,%d) = %d out of [1,8]", v, u, w)
			}
			if w != EdgeWeight(v, u) {
				t.Fatal("weights not deterministic")
			}
		}
	}
}
