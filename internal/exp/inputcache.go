package exp

// Input memoization. A `figures -all` run previously regenerated the
// same R-MAT/uniform/road/matrix inputs from scratch for every
// (figure, scheme) cell — O(figures x schemes) generator passes for a
// handful of distinct inputs. This cache builds each generated input
// exactly once per (input, scale, seed) key with single-flight
// construction and shares the result read-only across cells: generated
// EdgeLists and Matrices are immutable by contract (kernels and CSR
// builders only read them), so concurrent cells may alias one instance.

import (
	"sync"
	"sync/atomic"

	"cobra/internal/graph"
	"cobra/internal/obsv"
	"cobra/internal/sparse"
)

// inputKey identifies one generated input.
type inputKey struct {
	kind  string // "graph" | "matrix"
	input string
	scale int
	seed  uint64
}

// inputEntry is a single-flight construction slot: the first user runs
// the generator inside once; every other user blocks on once and then
// reads the shared, immutable result.
type inputEntry struct {
	once sync.Once
	el   *graph.EdgeList
	mat  *sparse.Matrix
	err  error
}

var (
	inputMu sync.Mutex
	inputs  = map[inputKey]*inputEntry{}

	// inputBuilds counts generator executions (not lookups) — test
	// observability for the build-exactly-once guarantee.
	inputBuilds atomic.Uint64
)

// InputBuilds returns how many generator executions have happened since
// the last ResetMemos (diagnostics and tests).
func InputBuilds() uint64 { return inputBuilds.Load() }

// ResetMemos drops every memoized input. Tests use it to force
// regeneration; long-lived callers can use it to release memory
// between unrelated campaigns.
func ResetMemos() {
	inputMu.Lock()
	inputs = map[inputKey]*inputEntry{}
	inputBuilds.Store(0)
	inputMu.Unlock()
}

func entryFor(k inputKey) *inputEntry {
	inputMu.Lock()
	defer inputMu.Unlock()
	e := inputs[k]
	if e == nil {
		e = &inputEntry{}
		inputs[k] = e
	}
	return e
}

// CachedGraphInput returns the shared, immutable edge list for the
// named graph input, generating it on first use (single-flight: under
// concurrent first use exactly one goroutine runs the generator).
func CachedGraphInput(input string, scale int, seed uint64) (*graph.EdgeList, error) {
	e := entryFor(inputKey{"graph", input, scale, seed})
	built := false
	e.once.Do(func() {
		built = true
		inputBuilds.Add(1)
		e.el, e.err = genGraphInput(input, scale, seed)
	})
	countInputLookup(built)
	return e.el, e.err
}

// countInputLookup records an input-cache hit or miss (a miss is the
// lookup that ran the generator; waiters on the same single-flight
// entry count as hits).
func countInputLookup(built bool) {
	reg := obsv.Default()
	if reg == nil {
		return
	}
	if built {
		reg.Counter("exp.inputcache.misses").Add(1)
	} else {
		reg.Counter("exp.inputcache.hits").Add(1)
	}
}

// CachedMatrixInput returns the shared, immutable sparse matrix for the
// named matrix input, generating it on first use.
func CachedMatrixInput(input string, scale int, seed uint64) (*sparse.Matrix, error) {
	e := entryFor(inputKey{"matrix", input, scale, seed})
	built := false
	e.once.Do(func() {
		built = true
		inputBuilds.Add(1)
		e.mat, e.err = genMatrixInput(input, scale, seed)
	})
	countInputLookup(built)
	return e.mat, e.err
}
