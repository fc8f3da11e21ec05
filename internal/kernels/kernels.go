// Package kernels defines the paper's nine evaluated applications as
// sim.App workloads: each replays its real update stream from a real
// generated input and applies updates functionally while driving the
// simulated machine with the true addresses touched. The apps:
//
//	Graph pre-processing: Degree-Count, Neighbor-Populate (Graph500)
//	Graph analytics:      PageRank (GAP), Radii (Ligra)
//	Sorting:              Integer Sort (counting sort [16])
//	Sparse algebra:       SpMV (HPCG), Transpose, PINV, SymPerm (SuiteSparse)
//
// Commutativity per §III-B: Degree-Count, PageRank, Radii, and SpMV are
// commutative; Neighbor-Populate, Integer Sort, Transpose, PINV, and
// SymPerm are not (update order defines output layout).
package kernels

import (
	"math"

	"cobra/internal/graph"
	"cobra/internal/sim"
	"cobra/internal/sparse"
	"cobra/internal/stats"
)

func addU64(a, b uint64) uint64 { return a + b }
func orU64(a, b uint64) uint64  { return a | b }

// ---------------------------------------------------------------------------
// Degree-Count

type degreeApplier struct {
	deg sim.Region
	cnt []uint32
}

func (a *degreeApplier) Apply(m *sim.Mach, key uint32, val uint64) {
	addr := a.deg.Addr(uint64(key) * 4)
	m.CPU.Load(addr) // read-modify-write the counter
	m.CPU.Store(addr)
	a.cnt[key] += uint32(val)
}

// DegreeCount builds the Degree-Count app from an edge list: the first
// dominant kernel of Edgelist-to-CSR conversion. Commutative increments
// with a 4 B tuple (the index alone).
func DegreeCount(el *graph.EdgeList, inputName string) *sim.App {
	return &sim.App{
		Name:        "DegreeCount",
		InputName:   inputName,
		Commutative: true,
		TupleBytes:  4,
		NumKeys:     el.N,
		NumUpdates:  el.M(),
		StreamBytes: 8, // one Edge
		ApplyALU:    1,
		Reduce:      addU64,
		ForEach: func(emit func(uint32, uint64, bool)) {
			for _, e := range el.Edges {
				emit(e.Src, 1, false)
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			return &degreeApplier{deg: m.Alloc(uint64(el.N) * 4), cnt: make([]uint32, el.N)}
		},
	}
}

// ---------------------------------------------------------------------------
// Neighbor-Populate

type neighPopApplier struct {
	cursorR sim.Region
	neighsR sim.Region
	cursor  []uint32
	neighs  []uint32
}

func (a *neighPopApplier) Apply(m *sim.Mach, key uint32, val uint64) {
	curAddr := a.cursorR.Addr(uint64(key) * 4)
	m.CPU.Load(curAddr) // offsetVal <- offsets[src]
	off := a.cursor[key]
	m.CPU.Store(a.neighsR.Addr(uint64(off) * 4)) // neighs[offsetVal] <- dst
	m.CPU.Store(curAddr)                         // offsets[src]++
	a.neighs[off] = uint32(val)
	a.cursor[key] = off + 1
}

// NeighborPopulate builds Algorithm 1's kernel: populate the CSR
// Neighbors Array from an edge list. Non-commutative (cursor order
// defines NA contents); 8 B tuples (src, dst).
func NeighborPopulate(el *graph.EdgeList, inputName string) *sim.App {
	offsets := graph.PrefixSum(graph.DegreeCount(el))
	return &sim.App{
		Name:        "NeighborPopulate",
		InputName:   inputName,
		Commutative: false,
		TupleBytes:  8,
		NumKeys:     el.N,
		NumUpdates:  el.M(),
		StreamBytes: 8,
		ApplyALU:    2,
		ForEach: func(emit func(uint32, uint64, bool)) {
			for _, e := range el.Edges {
				emit(e.Src, uint64(e.Dst), false)
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			a := &neighPopApplier{
				cursorR: m.Alloc(uint64(el.N) * 4),
				neighsR: m.Alloc(uint64(el.M()) * 4),
				cursor:  make([]uint32, el.N),
				neighs:  make([]uint32, el.M()),
			}
			copy(a.cursor, offsets[:el.N])
			return a
		},
	}
}

// ---------------------------------------------------------------------------
// PageRank

type pagerankApplier struct {
	incoming sim.Region
	sums     []float64
}

func (a *pagerankApplier) Apply(m *sim.Mach, key uint32, val uint64) {
	addr := a.incoming.Addr(uint64(key) * 8)
	m.CPU.Load(addr) // incoming[dst] += contrib
	m.CPU.Store(addr)
	a.sums[key] += float64FromBits(val)
}

// PageRank builds one push iteration of GAP-style PageRank on g
// (the paper simulates a single iteration, §VI). Commutative float
// adds; 8 B tuples (dst, contribution). Reduce is nil: float payloads
// do not coalesce losslessly in our integer reduction units.
func PageRank(g *graph.CSR, inputName string) *sim.App {
	n := g.N
	contrib := make([]float64, n)
	for v := 0; v < n; v++ {
		if d := g.Degree(uint32(v)); d > 0 {
			contrib[v] = 1 / float64(n) / float64(d)
		}
	}
	return &sim.App{
		Name:        "PageRank",
		InputName:   inputName,
		Commutative: true,
		TupleBytes:  8,
		NumKeys:     n,
		NumUpdates:  g.M(),
		StreamBytes: 4, // one neighbor index per update
		ApplyALU:    2, // fp add + damping math amortized
		ForEach: func(emit func(uint32, uint64, bool)) {
			for v := uint32(0); int(v) < n; v++ {
				first := true
				c := float64Bits(contrib[v])
				for _, u := range g.Neighbors(v) {
					emit(u, c, first)
					first = false
				}
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			return &pagerankApplier{incoming: m.Alloc(uint64(n) * 8), sums: make([]float64, n)}
		},
	}
}

// ---------------------------------------------------------------------------
// Radii

type radiiApplier struct {
	nextR sim.Region
	radR  sim.Region
	next  []uint64
	radii []int32
	round int32
}

func (a *radiiApplier) Apply(m *sim.Mach, key uint32, val uint64) {
	maskAddr := a.nextR.Addr(uint64(key) * 8)
	m.CPU.Load(maskAddr) // next[u] |= m
	m.CPU.Store(maskAddr)
	if val&^a.next[key] != 0 {
		a.next[key] |= val
		m.CPU.Store(a.radR.Addr(uint64(key) * 4)) // radii[u] = round
		if a.radii[key] < a.round {
			a.radii[key] = a.round
		}
	}
}

// Radii builds one sampled pull iteration of Ligra-style Radii
// (multi-source BFS; the paper simulates every second pull iteration
// via iteration sampling [43]). Commutative bitwise-OR updates; 16 B
// tuples (dst, 64-bit visit mask).
func Radii(g *graph.CSR, inputName string) *sim.App {
	// Run the functional Radii capturing the frontier masks of a middle
	// round, which is the representative sampled iteration.
	n := g.N
	cur := radiiFrontier(g, 2)
	numUpdates := 0
	for v := uint32(0); int(v) < n; v++ {
		if cur[v] != 0 {
			numUpdates += g.Degree(v)
		}
	}
	if numUpdates == 0 {
		// Degenerate graph; fall back to round 1 (sources only).
		cur = radiiFrontier(g, 1)
		for v := uint32(0); int(v) < n; v++ {
			if cur[v] != 0 {
				numUpdates += g.Degree(v)
			}
		}
	}
	return &sim.App{
		Name:        "Radii",
		InputName:   inputName,
		Commutative: true,
		TupleBytes:  16,
		NumKeys:     n,
		NumUpdates:  numUpdates,
		StreamBytes: 4,
		ApplyALU:    2,
		Reduce:      orU64,
		ForEach: func(emit func(uint32, uint64, bool)) {
			for v := uint32(0); int(v) < n; v++ {
				m := cur[v]
				if m == 0 {
					continue
				}
				first := true
				for _, u := range g.Neighbors(v) {
					emit(u, m, first)
					first = false
				}
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			a := &radiiApplier{
				nextR: m.Alloc(uint64(n) * 8),
				radR:  m.Alloc(uint64(n) * 4),
				next:  make([]uint64, n),
				radii: make([]int32, n),
				round: 3,
			}
			copy(a.next, cur)
			return a
		},
	}
}

// radiiFrontier returns the visit masks after `rounds` propagation
// rounds from the standard 64 spread sources.
func radiiFrontier(g *graph.CSR, rounds int) []uint64 {
	n := g.N
	cur := make([]uint64, n)
	k := 64
	if n < k {
		k = n
	}
	for i := 0; i < k; i++ {
		cur[i*n/k] |= 1 << uint(i)
	}
	for r := 0; r < rounds; r++ {
		next := append([]uint64(nil), cur...)
		for v := uint32(0); int(v) < n; v++ {
			if cur[v] == 0 {
				continue
			}
			for _, u := range g.Neighbors(v) {
				next[u] |= cur[v]
			}
		}
		cur = next
	}
	return cur
}

// ---------------------------------------------------------------------------
// Integer Sort

type isortApplier struct {
	cursorR sim.Region
	outR    sim.Region
	cursor  []uint32
	out     []uint32
}

func (a *isortApplier) Apply(m *sim.Mach, key uint32, val uint64) {
	curAddr := a.cursorR.Addr(uint64(key) * 4)
	m.CPU.Load(curAddr)
	off := a.cursor[key]
	m.CPU.Store(a.outR.Addr(uint64(off) * 4))
	m.CPU.Store(curAddr)
	a.out[off] = uint32(val)
	a.cursor[key] = off + 1
}

// IntSort builds the counting-sort scatter over n random keys with the
// given maximum key value (the paper sorts 256 M keys with varying max
// key). Non-commutative (stability through cursors); 4 B tuples.
func IntSort(n, maxKey int, seed uint64, inputName string) *sim.App {
	r := stats.NewRand(seed)
	keys := make([]uint32, n)
	counts := make([]uint32, maxKey)
	for i := range keys {
		keys[i] = uint32(r.Intn(maxKey))
		counts[keys[i]]++
	}
	offsets := graph.PrefixSum(counts)
	return &sim.App{
		Name:        "IntSort",
		InputName:   inputName,
		Commutative: false,
		TupleBytes:  4,
		NumKeys:     maxKey,
		NumUpdates:  n,
		StreamBytes: 4,
		ApplyALU:    1,
		ForEach: func(emit func(uint32, uint64, bool)) {
			for _, k := range keys {
				emit(k, uint64(k), false)
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			a := &isortApplier{
				cursorR: m.Alloc(uint64(maxKey) * 4),
				outR:    m.Alloc(uint64(n) * 4),
				cursor:  make([]uint32, maxKey),
				out:     make([]uint32, n),
			}
			copy(a.cursor, offsets[:maxKey])
			return a
		},
	}
}

// ---------------------------------------------------------------------------
// SpMV (scatter formulation over the transpose representation, §VI)

type spmvApplier struct {
	yR sim.Region
	y  []float64
}

func (a *spmvApplier) Apply(m *sim.Mach, key uint32, val uint64) {
	addr := a.yR.Addr(uint64(key) * 8)
	m.CPU.Load(addr)
	m.CPU.Store(addr)
	a.y[key] += float64FromBits(val)
}

// SpMV builds the scatter-form sparse matrix-vector product y += Aᵀ·x
// (HPCG class). Commutative float adds; 16 B tuples (col, product).
func SpMV(a *sparse.Matrix, inputName string) *sim.App {
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	return &sim.App{
		Name:        "SpMV",
		InputName:   inputName,
		Commutative: true,
		TupleBytes:  16,
		NumKeys:     a.Cols,
		NumUpdates:  a.NNZ(),
		StreamBytes: 12, // col index + value
		ApplyALU:    3,  // fp multiply-add
		ForEach: func(emit func(uint32, uint64, bool)) {
			for i := 0; i < a.Rows; i++ {
				cols, vals := a.Row(i)
				first := true
				for k := range cols {
					emit(cols[k], float64Bits(vals[k]*x[i]), first)
					first = false
				}
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			return &spmvApplier{yR: m.Alloc(uint64(a.Cols) * 8), y: make([]float64, a.Cols)}
		},
	}
}

// ---------------------------------------------------------------------------
// Transpose

type transposeApplier struct {
	cursorR sim.Region
	colR    sim.Region
	valR    sim.Region
	cursor  []uint32
	colIdx  []uint32
}

func (a *transposeApplier) Apply(m *sim.Mach, key uint32, val uint64) {
	curAddr := a.cursorR.Addr(uint64(key) * 4)
	m.CPU.Load(curAddr)
	p := a.cursor[key]
	m.CPU.Store(a.colR.Addr(uint64(p) * 4))
	m.CPU.Store(a.valR.Addr(uint64(p) * 8))
	m.CPU.Store(curAddr)
	a.colIdx[p] = uint32(val)
	a.cursor[key] = p + 1
}

// Transpose builds the sparse transpose kernel (SuiteSparse cs_transpose
// shape): scatter each entry into its destination column's cursor.
// Non-commutative; 16 B tuples (col, row, value).
func Transpose(a *sparse.Matrix, inputName string) *sim.App {
	cnt := make([]uint32, a.Cols)
	for _, c := range a.ColIdx {
		cnt[c]++
	}
	offsets := graph.PrefixSum(cnt)
	return &sim.App{
		Name:        "Transpose",
		InputName:   inputName,
		Commutative: false,
		TupleBytes:  16,
		NumKeys:     a.Cols,
		NumUpdates:  a.NNZ(),
		StreamBytes: 12,
		ApplyALU:    2,
		ForEach: func(emit func(uint32, uint64, bool)) {
			for i := 0; i < a.Rows; i++ {
				cols, _ := a.Row(i)
				first := true
				for _, c := range cols {
					emit(c, uint64(i), first)
					first = false
				}
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			ap := &transposeApplier{
				cursorR: m.Alloc(uint64(a.Cols) * 4),
				colR:    m.Alloc(uint64(a.NNZ()) * 4),
				valR:    m.Alloc(uint64(a.NNZ()) * 8),
				cursor:  make([]uint32, a.Cols),
				colIdx:  make([]uint32, a.NNZ()),
			}
			copy(ap.cursor, offsets[:a.Cols])
			return ap
		},
	}
}

// ---------------------------------------------------------------------------
// PINV

type pinvApplier struct {
	outR sim.Region
	out  []uint32
}

func (a *pinvApplier) Apply(m *sim.Mach, key uint32, val uint64) {
	// Pure scatter: out[p[i]] = i. No read — each key written once, so
	// Accumulate has no temporal reuse to harvest (the §VII-A anomaly).
	m.CPU.Store(a.outR.Addr(uint64(key) * 4))
	a.out[key] = uint32(val)
}

// PINV builds the permutation-inverse kernel (SuiteSparse cs_pinv).
// Non-commutative (trivially: one update per key); 16 B tuples in the
// paper's accounting.
func PINV(perm []uint32, inputName string) *sim.App {
	n := len(perm)
	return &sim.App{
		Name:        "PINV",
		InputName:   inputName,
		Commutative: false,
		TupleBytes:  16,
		NumKeys:     n,
		NumUpdates:  n,
		StreamBytes: 4,
		ApplyALU:    1,
		ForEach: func(emit func(uint32, uint64, bool)) {
			for i, p := range perm {
				emit(p, uint64(i), false)
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			return &pinvApplier{outR: m.Alloc(uint64(n) * 4), out: make([]uint32, n)}
		},
	}
}

// ---------------------------------------------------------------------------
// SymPerm

// SymPerm builds the symmetric-permutation kernel (SuiteSparse
// cs_symperm): only upper-triangular coordinates are processed and
// scattered to permuted positions. Non-commutative; 16 B tuples. The
// skipped lower triangle halves the update/stream ratio — the limited
// headroom the paper reports (§VII-A).
func SymPerm(a *sparse.Matrix, perm []uint32, inputName string) *sim.App {
	n := a.Rows
	// Count upper-triangular entries and destination-row sizes.
	numUpdates := 0
	cnt := make([]uint32, n)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if int(j) < i {
				continue
			}
			i2, j2 := perm[i], perm[j]
			if i2 > j2 {
				i2, j2 = j2, i2
			}
			cnt[i2]++
			numUpdates++
		}
	}
	offsets := graph.PrefixSum(cnt)
	// Stream cost: the kernel walks every stored entry (both triangles)
	// but emits updates only for the upper half. Charge the full stream
	// bytes to the updates that do get emitted.
	streamBytes := 12
	if numUpdates > 0 {
		streamBytes = 12 * a.NNZ() / numUpdates
	}
	return &sim.App{
		Name:        "SymPerm",
		InputName:   inputName,
		Commutative: false,
		TupleBytes:  16,
		NumKeys:     n,
		NumUpdates:  numUpdates,
		StreamBytes: streamBytes,
		ApplyALU:    4, // permutation lookups + min/max swap
		ForEach: func(emit func(uint32, uint64, bool)) {
			for i := 0; i < n; i++ {
				cols, _ := a.Row(i)
				first := true
				for _, j := range cols {
					if int(j) < i {
						continue
					}
					i2, j2 := perm[i], perm[j]
					if i2 > j2 {
						i2, j2 = j2, i2
					}
					emit(i2, uint64(j2), first)
					first = false
				}
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			ap := &transposeApplier{
				cursorR: m.Alloc(uint64(n) * 4),
				colR:    m.Alloc(uint64(numUpdates) * 4),
				valR:    m.Alloc(uint64(numUpdates) * 8),
				cursor:  make([]uint32, n),
				colIdx:  make([]uint32, numUpdates),
			}
			copy(ap.cursor, offsets[:n])
			return ap
		},
	}
}

// float bit helpers.
func float64Bits(f float64) uint64     { return math.Float64bits(f) }
func float64FromBits(b uint64) float64 { return math.Float64frombits(b) }
