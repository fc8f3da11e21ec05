package sparse

// Host references only this package's tests run: the simulated SpMV and
// PINV kernels (package kernels) carry their own host references.

// SpMV computes y = A·x row-wise (HPCG shape). In CSR this gathers
// x[col] irregularly.
func SpMV(a *Matrix, x, y []float64) {
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		sum := 0.0
		for k := range cols {
			sum += vals[k] * x[cols[k]]
		}
		y[i] = sum
	}
}

// PINV computes the inverse of a permutation: out[p[i]] = i. Each key
// is written exactly once — a pure irregular scatter with no reuse at
// all, which is why the paper found PINV to be the one workload where
// more bins do not improve Accumulate (§VII-A).
func PINV(p []uint32) []uint32 {
	out := make([]uint32, len(p))
	for i, pi := range p {
		out[pi] = uint32(i)
	}
	return out
}
