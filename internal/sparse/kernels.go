package sparse

import "cobra/internal/pb"

// This file implements the three SuiteSparse-derived kernels the paper
// parallelizes: Transpose, PINV, and SymPerm. All three perform
// irregular NON-commutative updates (the order of updates to the
// cursor/output arrays defines the result layout), yet all have
// unordered parallelism — exactly the class §III-B argues PB covers and
// commutativity-dependent optimizations (PHI) cannot.

// Transpose builds Aᵀ in CSR form. The scatter through per-column
// cursors is the Neighbor-Populate pattern on matrix columns.
func Transpose(a *Matrix) *Matrix {
	cnt := make([]uint32, a.Cols)
	for _, c := range a.ColIdx {
		cnt[c]++
	}
	rowptr := make([]uint32, a.Cols+1)
	var sum uint32
	for i, c := range cnt {
		rowptr[i] = sum
		sum += c
	}
	rowptr[a.Cols] = sum
	colidx := make([]uint32, a.NNZ())
	vals := make([]float64, a.NNZ())
	cursor := make([]uint32, a.Cols)
	copy(cursor, rowptr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		cols, vs := a.Row(i)
		for k := range cols {
			c := cols[k]
			p := cursor[c] // irregular, non-commutative
			colidx[p] = uint32(i)
			vals[p] = vs[k]
			cursor[c] = p + 1
		}
	}
	return &Matrix{Rows: a.Cols, Cols: a.Rows, RowPtr: rowptr, ColIdx: colidx, Vals: vals}
}

// transposeEntry is the value payload binned by TransposePB.
type transposeEntry struct {
	row uint32
	val float64
}

// TransposePB is the propagation-blocked Transpose: entries are binned
// by destination column, then scattered with the cursor range in cache.
func TransposePB(a *Matrix, o pb.Options) *Matrix {
	cnt := make([]uint32, a.Cols)
	for _, c := range a.ColIdx {
		cnt[c]++
	}
	rowptr := make([]uint32, a.Cols+1)
	var sum uint32
	for i, c := range cnt {
		rowptr[i] = sum
		sum += c
	}
	rowptr[a.Cols] = sum
	colidx := make([]uint32, a.NNZ())
	vals := make([]float64, a.NNZ())
	cursor := make([]uint32, a.Cols)
	copy(cursor, rowptr[:a.Cols])
	pb.Run(a.Rows, a.Cols,
		func(b, e int, emit func(uint32, transposeEntry)) {
			for i := b; i < e; i++ {
				cols, vs := a.Row(i)
				for k := range cols {
					emit(cols[k], transposeEntry{row: uint32(i), val: vs[k]})
				}
			}
		},
		func(c uint32, t transposeEntry) {
			p := cursor[c]
			colidx[p] = t.row
			vals[p] = t.val
			cursor[c] = p + 1
		},
		o)
	return &Matrix{Rows: a.Cols, Cols: a.Rows, RowPtr: rowptr, ColIdx: colidx, Vals: vals}
}

// SymPerm computes C = P·triu(A)·Pᵀ keeping only the upper triangle
// (cs_symperm from SuiteSparse, a Cholesky preprocessing step): entry
// (i,j) of the upper triangle of A moves to (min(p)(i,j)', max(...)')
// under the permutation. Only upper-triangular input coordinates are
// visited, which limits PB's headroom (§VII-A).
func SymPerm(a *Matrix, perm []uint32) *Matrix {
	n := a.Rows
	// Pass 1: count entries per destination row.
	cnt := make([]uint32, n)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if int(j) < i {
				continue // lower triangle skipped
			}
			i2, j2 := perm[i], perm[j]
			if i2 > j2 {
				i2, j2 = j2, i2
			}
			cnt[i2]++
		}
	}
	rowptr := make([]uint32, n+1)
	var sum uint32
	for i, c := range cnt {
		rowptr[i] = sum
		sum += c
	}
	rowptr[n] = sum
	colidx := make([]uint32, sum)
	vals := make([]float64, sum)
	cursor := make([]uint32, n)
	copy(cursor, rowptr[:n])
	// Pass 2: scatter (irregular, non-commutative through cursors).
	for i := 0; i < n; i++ {
		cols, vs := a.Row(i)
		for k, j := range cols {
			if int(j) < i {
				continue
			}
			i2, j2 := perm[i], perm[j]
			if i2 > j2 {
				i2, j2 = j2, i2
			}
			p := cursor[i2]
			colidx[p] = j2
			vals[p] = vs[k]
			cursor[i2] = p + 1
		}
	}
	return &Matrix{Rows: n, Cols: n, RowPtr: rowptr, ColIdx: colidx, Vals: vals}
}
