package graph

import (
	"fmt"

	"cobra/internal/stats"
)

// This file generates the synthetic inputs standing in for the paper's
// Table III graphs. The paper's trends depend on two input axes: degree
// skew (power-law vs uniform vs bounded) and working-set size relative
// to cache. The three generators span those axes:
//
//   - RMAT: Kronecker-style power-law graphs (stand-ins for KRON,
//     TWITTER, UK2005, HBUBL — the highly skewed inputs).
//   - Uniform: Erdős–Rényi-style uniform random graphs (URND).
//   - Grid: bounded-degree 2D lattice with local edges (ROAD, EURO —
//     the high-diameter, low-degree inputs).

// RMAT generates a power-law edge list with 2^scale vertices and
// edgeFactor edges per vertex using the Graph500 R-MAT parameters
// (a=0.57, b=0.19, c=0.19, d=0.05).
func RMAT(scale, edgeFactor int, seed uint64) *EdgeList {
	return RMATParams(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
}

// RMATParams generates an R-MAT graph with explicit quadrant
// probabilities (a+b+c <= 1; d is the remainder).
func RMATParams(scale, edgeFactor int, a, b, c float64, seed uint64) *EdgeList {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("graph: RMAT scale %d out of range [1,30]", scale))
	}
	n := 1 << scale
	m := n * edgeFactor
	r := stats.NewRand(seed)
	edges := make([]Edge, m)
	for i := range edges {
		var src, dst uint32
		for lvl := 0; lvl < scale; lvl++ {
			p := r.Float64()
			var sbit, dbit uint32
			switch {
			case p < a:
				// top-left: 0,0
			case p < a+b:
				dbit = 1
			case p < a+b+c:
				sbit = 1
			default:
				sbit, dbit = 1, 1
			}
			src = src<<1 | sbit
			dst = dst<<1 | dbit
		}
		edges[i] = Edge{Src: src, Dst: dst}
	}
	return &EdgeList{N: n, Edges: edges}
}

// Uniform generates an edge list with n vertices and m uniformly random
// edges (self-loops allowed, matching synthetic URND-style inputs).
func Uniform(n, m int, seed uint64) *EdgeList {
	if n <= 0 || m < 0 {
		panic("graph: Uniform requires n > 0, m >= 0")
	}
	r := stats.NewRand(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
	}
	return &EdgeList{N: n, Edges: edges}
}

// Grid generates a bounded-degree graph: a rows×cols lattice where each
// cell connects to its 4 neighbors plus a few short-range shortcuts,
// mimicking road networks (low max degree, high diameter, strong
// spatial locality in vertex IDs).
func Grid(rows, cols int, shortcutFrac float64, seed uint64) *EdgeList {
	if rows <= 0 || cols <= 0 {
		panic("graph: Grid requires positive dimensions")
	}
	n := rows * cols
	r := stats.NewRand(seed)
	edges := make([]Edge, 0, 4*n)
	id := func(x, y int) uint32 { return uint32(x*cols + y) }
	for x := 0; x < rows; x++ {
		for y := 0; y < cols; y++ {
			v := id(x, y)
			if x+1 < rows {
				edges = append(edges, Edge{v, id(x+1, y)}, Edge{id(x+1, y), v})
			}
			if y+1 < cols {
				edges = append(edges, Edge{v, id(x, y+1)}, Edge{id(x, y+1), v})
			}
			if shortcutFrac > 0 && r.Float64() < shortcutFrac {
				// Short-range shortcut within a +/- 1000-vertex window,
				// like highway links in road networks.
				lo := int(v) - 1000
				if lo < 0 {
					lo = 0
				}
				hi := int(v) + 1000
				if hi >= n {
					hi = n - 1
				}
				u := uint32(lo + r.Intn(hi-lo+1))
				edges = append(edges, Edge{v, u})
			}
		}
	}
	return &EdgeList{N: n, Edges: edges}
}

// DegreeStats summarizes an edge list's degree distribution for
// generator validation and cmd/graphgen.
type DegreeStats struct {
	N, M         int
	MaxDeg       uint32
	MeanDeg      float64
	P99Deg       float64
	ZeroDegFrac  float64
	Top1PctShare float64 // fraction of edges owned by the top 1% of vertices
}

// Degrees computes DegreeStats for el.
func Degrees(el *EdgeList) DegreeStats {
	deg := DegreeCount(el)
	ds := DegreeStats{N: el.N, M: el.M()}
	if el.N == 0 {
		return ds
	}
	fs := make([]float64, el.N)
	zero := 0
	for i, d := range deg {
		fs[i] = float64(d)
		if d > ds.MaxDeg {
			ds.MaxDeg = d
		}
		if d == 0 {
			zero++
		}
	}
	ds.MeanDeg = float64(el.M()) / float64(el.N)
	ds.P99Deg = stats.Percentile(fs, 99)
	ds.ZeroDegFrac = float64(zero) / float64(el.N)
	// Top-1% share: sort descending via percentile threshold then sum.
	thresh := stats.Percentile(fs, 99)
	var topEdges float64
	for _, f := range fs {
		if f >= thresh && f > 0 {
			topEdges += f
		}
	}
	if el.M() > 0 {
		ds.Top1PctShare = topEdges / float64(el.M())
	}
	return ds
}
