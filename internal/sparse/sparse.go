// Package sparse provides the sparse linear algebra substrate: CSR/COO
// matrices, synthetic generators (stencil, random, banded), and host
// references for two of the four kernels the paper evaluates:
// Transpose, also in a propagation-blocked form, and SymPerm
// (SuiteSparse subroutines). The SpMV (HPCG-style) and PINV references
// are test code.
package sparse

import (
	"fmt"

	"cobra/internal/stats"
)

// Matrix is a CSR sparse matrix.
type Matrix struct {
	Rows, Cols int
	RowPtr     []uint32 // len Rows+1
	ColIdx     []uint32 // len NNZ
	Vals       []float64
}

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.ColIdx) }

// Row returns the column indices and values of row i (do not mutate).
func (m *Matrix) Row(i int) ([]uint32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}

// Validate checks structural invariants.
func (m *Matrix) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: rowptr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 || int(m.RowPtr[m.Rows]) != m.NNZ() {
		return fmt.Errorf("sparse: rowptr endpoints wrong")
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("sparse: rowptr not monotone at %d", i)
		}
	}
	if len(m.Vals) != m.NNZ() {
		return fmt.Errorf("sparse: vals length %d, want %d", len(m.Vals), m.NNZ())
	}
	for k, c := range m.ColIdx {
		if int(c) >= m.Cols {
			return fmt.Errorf("sparse: col %d at nz %d out of range", c, k)
		}
	}
	return nil
}

// Coord is one COO entry.
type Coord struct {
	Row, Col uint32
	Val      float64
}

// FromCOO builds a CSR matrix from coordinates (duplicates are kept as
// separate entries, like most assembly pipelines).
func FromCOO(rows, cols int, coords []Coord) *Matrix {
	cnt := make([]uint32, rows)
	for _, c := range coords {
		cnt[c.Row]++
	}
	rowptr := make([]uint32, rows+1)
	var sum uint32
	for i, c := range cnt {
		rowptr[i] = sum
		sum += c
	}
	rowptr[rows] = sum
	colidx := make([]uint32, len(coords))
	vals := make([]float64, len(coords))
	cursor := make([]uint32, rows)
	copy(cursor, rowptr[:rows])
	for _, c := range coords {
		p := cursor[c.Row]
		colidx[p] = c.Col
		vals[p] = c.Val
		cursor[c.Row] = p + 1
	}
	return &Matrix{Rows: rows, Cols: cols, RowPtr: rowptr, ColIdx: colidx, Vals: vals}
}

// Stencil5 generates the 5-point Laplacian on an n×n grid (the HPCG
// problem class): N = n² rows, ≤5 entries per row, strongly banded.
func Stencil5(n int) *Matrix {
	N := n * n
	coords := make([]Coord, 0, 5*N)
	id := func(x, y int) uint32 { return uint32(x*n + y) }
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			r := id(x, y)
			coords = append(coords, Coord{r, r, 4})
			if x > 0 {
				coords = append(coords, Coord{r, id(x-1, y), -1})
			}
			if x < n-1 {
				coords = append(coords, Coord{r, id(x+1, y), -1})
			}
			if y > 0 {
				coords = append(coords, Coord{r, id(x, y-1), -1})
			}
			if y < n-1 {
				coords = append(coords, Coord{r, id(x, y+1), -1})
			}
		}
	}
	return FromCOO(N, N, coords)
}

// RandomSparse generates a rows×cols matrix with ~nnzPerRow uniformly
// scattered entries per row (optimization-problem class: no banding, so
// column accesses are fully irregular).
func RandomSparse(rows, cols, nnzPerRow int, seed uint64) *Matrix {
	r := stats.NewRand(seed)
	coords := make([]Coord, 0, rows*nnzPerRow)
	for i := 0; i < rows; i++ {
		for k := 0; k < nnzPerRow; k++ {
			coords = append(coords, Coord{
				Row: uint32(i),
				Col: uint32(r.Intn(cols)),
				Val: r.Float64()*2 - 1,
			})
		}
	}
	return FromCOO(rows, cols, coords)
}

// SkewedSparse generates a matrix whose column distribution is
// power-law (some columns extremely popular), the worst case for
// column-indexed irregular updates and the best case for coalescing.
func SkewedSparse(rows, cols, nnzPerRow int, seed uint64) *Matrix {
	r := stats.NewRand(seed)
	coords := make([]Coord, 0, rows*nnzPerRow)
	bits := stats.Log2Ceil(uint64(cols))
	for i := 0; i < rows; i++ {
		for k := 0; k < nnzPerRow; k++ {
			// R-MAT-style per-bit biased column pick.
			var c uint32
			for b := uint(0); b < bits; b++ {
				bit := uint32(0)
				if r.Float64() > 0.7 {
					bit = 1
				}
				c = c<<1 | bit
			}
			if int(c) >= cols {
				c = uint32(cols - 1)
			}
			coords = append(coords, Coord{Row: uint32(i), Col: c, Val: r.Float64()})
		}
	}
	return FromCOO(rows, cols, coords)
}

// Banded generates a matrix with entries within `band` of the diagonal
// (simulation-problem class between stencil and random).
func Banded(n, nnzPerRow, band int, seed uint64) *Matrix {
	r := stats.NewRand(seed)
	coords := make([]Coord, 0, n*nnzPerRow)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			lo := i - band
			if lo < 0 {
				lo = 0
			}
			hi := i + band
			if hi >= n {
				hi = n - 1
			}
			coords = append(coords, Coord{
				Row: uint32(i),
				Col: uint32(lo + r.Intn(hi-lo+1)),
				Val: r.Float64(),
			})
		}
	}
	return FromCOO(n, n, coords)
}

// SymmetricUpper generates a random symmetric matrix stored fully (both
// triangles) so SymPerm has work to select. diagFrac of rows get a
// diagonal entry.
func SymmetricUpper(n, nnzPerRow int, seed uint64) *Matrix {
	r := stats.NewRand(seed)
	coords := make([]Coord, 0, 2*n*nnzPerRow)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			j := r.Intn(n)
			v := r.Float64()
			coords = append(coords, Coord{uint32(i), uint32(j), v})
			if j != i {
				coords = append(coords, Coord{uint32(j), uint32(i), v})
			}
		}
	}
	return FromCOO(n, n, coords)
}
