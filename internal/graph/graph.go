// Package graph provides the graph substrate: edge lists, the CSR/CSC
// compressed representations of Figure 1, synthetic input generators
// spanning the paper's input classes (Table III), and the Graph500-style
// build kernels (Degree-Count, Neighbor-Populate) plus analytics kernels
// (PageRank, BFS, connected components, SSSP; the multi-source Radii
// reference is test code). The build kernels,
// PageRank, connected components and SSSP also come in
// propagation-blocked forms.
package graph

import (
	"fmt"

	"cobra/internal/pb"
)

// Edge is one directed edge of an edge list.
type Edge struct {
	Src, Dst uint32
}

// EdgeList is the raw input representation (e.g., Graph500's input to
// the CSR-construction kernel).
type EdgeList struct {
	N     int // number of vertices
	Edges []Edge
}

// M returns the edge count.
func (el *EdgeList) M() int { return len(el.Edges) }

// CSR is the Compressed Sparse Row representation of Figure 1: OA
// (Offsets) holds each vertex's starting offset into NA (Neighs), which
// stores neighbor lists contiguously, sorted by edge source.
type CSR struct {
	N       int
	Offsets []uint32 // len N+1; OA in Figure 1
	Neighs  []uint32 // len M;  NA in Figure 1
}

// M returns the edge count.
func (g *CSR) M() int { return len(g.Neighs) }

// Degree returns the out-degree of vertex v.
func (g *CSR) Degree(v uint32) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Neighbors returns v's neighbor slice (do not mutate).
func (g *CSR) Neighbors(v uint32) []uint32 {
	return g.Neighs[g.Offsets[v]:g.Offsets[v+1]]
}

// Validate checks structural invariants, returning the first violation.
func (g *CSR) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.Offsets[0])
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	if int(g.Offsets[g.N]) != len(g.Neighs) {
		return fmt.Errorf("graph: offsets[N] = %d, want %d", g.Offsets[g.N], len(g.Neighs))
	}
	for i, u := range g.Neighs {
		if int(u) >= g.N {
			return fmt.Errorf("graph: neighbor %d at position %d out of range", u, i)
		}
	}
	return nil
}

// DegreeCount computes out-degrees of an edge list — the first dominant
// kernel of Edgelist-to-CSR conversion. The increments are irregular
// commutative updates.
func DegreeCount(el *EdgeList) []uint32 {
	deg := make([]uint32, el.N)
	for _, e := range el.Edges {
		deg[e.Src]++
	}
	return deg
}

// DegreeCountPB is the propagation-blocked variant.
func DegreeCountPB(el *EdgeList, o pb.Options) []uint32 {
	deg := make([]uint32, el.N)
	pb.Run(len(el.Edges), el.N,
		func(b, e int, emit func(uint32, struct{})) {
			for _, ed := range el.Edges[b:e] {
				emit(ed.Src, struct{}{})
			}
		},
		func(k uint32, _ struct{}) { deg[k]++ },
		o)
	return deg
}

// PrefixSum converts degrees into CSR offsets (exclusive scan with the
// total appended).
func PrefixSum(deg []uint32) []uint32 {
	offsets := make([]uint32, len(deg)+1)
	var sum uint32
	for i, d := range deg {
		offsets[i] = sum
		sum += d
	}
	offsets[len(deg)] = sum
	return offsets
}

// NeighborPopulate fills the Neighbors Array from an edge list given
// CSR offsets — Algorithm 1 of the paper. It consumes a scratch copy of
// offsets; the updates to it are irregular and NOT commutative (their
// order defines NA contents), yet the kernel has unordered parallelism:
// a vertex's neighbors may be listed in any order.
func NeighborPopulate(el *EdgeList, offsets []uint32) *CSR {
	cursor := make([]uint32, el.N)
	copy(cursor, offsets[:el.N])
	neighs := make([]uint32, el.M())
	for _, e := range el.Edges {
		neighs[cursor[e.Src]] = e.Dst
		cursor[e.Src]++
	}
	return &CSR{N: el.N, Offsets: offsets, Neighs: neighs}
}

// NeighborPopulatePB is Algorithm 2: edges are binned by source, then
// each bin's edges populate NA with high locality. Bins partition the
// source range, so concurrent accumulate goroutines never race.
func NeighborPopulatePB(el *EdgeList, offsets []uint32, o pb.Options) *CSR {
	cursor := make([]uint32, el.N)
	copy(cursor, offsets[:el.N])
	neighs := make([]uint32, el.M())
	pb.Run(el.M(), el.N,
		func(b, e int, emit func(uint32, uint32)) {
			for _, ed := range el.Edges[b:e] {
				emit(ed.Src, ed.Dst)
			}
		},
		func(src uint32, dst uint32) {
			neighs[cursor[src]] = dst
			cursor[src]++
		},
		o)
	return &CSR{N: el.N, Offsets: offsets, Neighs: neighs}
}

// BuildCSR runs the full Edgelist-to-CSR conversion (Degree-Count,
// PrefixSum, Neighbor-Populate). usePB selects the propagation-blocked
// kernels.
func BuildCSR(el *EdgeList, usePB bool, o pb.Options) *CSR {
	var deg []uint32
	if usePB {
		deg = DegreeCountPB(el, o)
	} else {
		deg = DegreeCount(el)
	}
	offsets := PrefixSum(deg)
	if usePB {
		return NeighborPopulatePB(el, offsets, o)
	}
	return NeighborPopulate(el, offsets)
}

// Transpose returns the graph with every edge reversed (CSC of the
// original). Internally another non-commutative scatter.
func (g *CSR) Transpose() *CSR {
	deg := make([]uint32, g.N)
	for _, u := range g.Neighs {
		deg[u]++
	}
	offsets := PrefixSum(deg)
	cursor := make([]uint32, g.N)
	copy(cursor, offsets[:g.N])
	neighs := make([]uint32, g.M())
	for v := uint32(0); int(v) < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			neighs[cursor[u]] = v
			cursor[u]++
		}
	}
	return &CSR{N: g.N, Offsets: offsets, Neighs: neighs}
}

// BFS runs a standard single-source BFS returning parent pointers
// (-1 for unreached).
func BFS(g *CSR, source uint32) []int32 {
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = -1
	}
	parent[source] = int32(source)
	frontier := []uint32{source}
	for len(frontier) > 0 {
		var nextFrontier []uint32
		for _, v := range frontier {
			for _, u := range g.Neighbors(v) {
				if parent[u] == -1 {
					parent[u] = int32(v)
					nextFrontier = append(nextFrontier, u)
				}
			}
		}
		frontier = nextFrontier
	}
	return parent
}
