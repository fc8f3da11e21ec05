package kernels

// Test-only views of the appliers' functional results: the tests check
// each simulated kernel's output against a host reference.

import "cobra/internal/sim"

// DegCounts exposes a degree applier's functional result for validation.
func DegCounts(a sim.Applier) []uint32 {
	if d, ok := a.(*degreeApplier); ok {
		return d.cnt
	}
	return nil
}

// PageRankSums exposes the applier's accumulated sums for validation.
func PageRankSums(a sim.Applier) []float64 {
	if pr, ok := a.(*pagerankApplier); ok {
		return pr.sums
	}
	return nil
}

// SortedOutput exposes the isort applier result for validation.
func SortedOutput(a sim.Applier) []uint32 {
	if s, ok := a.(*isortApplier); ok {
		return s.out
	}
	return nil
}

// SpMVResult exposes the accumulated y vector for validation.
func SpMVResult(a sim.Applier) []float64 {
	if s, ok := a.(*spmvApplier); ok {
		return s.y
	}
	return nil
}

// TransposeCols exposes a transpose/symperm applier's column result.
func TransposeCols(a sim.Applier) []uint32 {
	if t, ok := a.(*transposeApplier); ok {
		return t.colIdx
	}
	return nil
}

// PINVResult exposes the applier's inverse permutation for validation.
func PINVResult(a sim.Applier) []uint32 {
	if p, ok := a.(*pinvApplier); ok {
		return p.out
	}
	return nil
}

// Neighs exposes a neighPop applier's functional result for validation.
func Neighs(a sim.Applier) []uint32 {
	if np, ok := a.(*neighPopApplier); ok {
		return np.neighs
	}
	return nil
}
