package exp

import (
	"bytes"
	"runtime"
	"testing"

	"cobra/internal/mem"
	"cobra/internal/sim"
)

// renderFigure runs a figure driver and returns its rendered bytes —
// exactly what cmd/figures would print (minus the timing note it
// appends, which is inherently nondeterministic).
func renderFigure(t *testing.T, fn func(Opts) (*Table, error), o Opts) []byte {
	t.Helper()
	tab, err := fn(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	return buf.Bytes()
}

// TestFig10DeterministicUnderParallelism is the tentpole's core
// regression: a figure built on the full worker pool must be
// byte-identical to the serial build. ResetMemos between runs forces
// the parallel run to regenerate its inputs from scratch, so the two
// runs share no memoized state.
func TestFig10DeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism regression skipped in -short mode")
	}
	o := tinyOpts()

	o.Parallel = 1
	ResetMemos()
	serial := renderFigure(t, Fig10, o)

	o.Parallel = runtime.GOMAXPROCS(0)
	ResetMemos()
	parallel := renderFigure(t, Fig10, o)

	if !bytes.Equal(serial, parallel) {
		t.Fatalf("Fig10 output differs between -parallel 1 and -parallel %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
			o.Parallel, serial, parallel)
	}
}

// TestAblationDeterministicUnderParallelism covers the MapCells
// adoption in the ablation drivers with the cheapest table (A2: three
// independent policy cells).
func TestAblationDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism regression skipped in -short mode")
	}
	o := tinyOpts()

	o.Parallel = 1
	ResetMemos()
	serial := renderFigure(t, AblationLLCPolicy, o)

	o.Parallel = runtime.GOMAXPROCS(0)
	ResetMemos()
	parallel := renderFigure(t, AblationLLCPolicy, o)

	if !bytes.Equal(serial, parallel) {
		t.Fatalf("A2 output differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestSuiteFollowsArch: the suite figures derive from runSuite, and
// nothing in one process may serve one architecture's suite to
// another. With no ResetMemos between, a NUCA Fig10 run after a plain
// one renders the same bytes as a fresh NUCA Fig10.
func TestSuiteFollowsArch(t *testing.T) {
	if testing.Short() {
		t.Skip("suite regression skipped in -short mode")
	}
	plain := Opts{Scale: 10, Seed: 7, Arch: sim.DefaultArch()}
	nuca := plain
	nuca.Arch.Mem.NUCA = mem.DefaultNUCA()

	ResetMemos()
	fresh := renderFigure(t, Fig10, nuca)
	ResetMemos()
	plainOut := renderFigure(t, Fig10, plain)
	after := renderFigure(t, Fig10, nuca)
	if bytes.Equal(plainOut, fresh) {
		t.Fatal("plain and NUCA Fig10 render the same bytes; the check proves nothing")
	}
	if !bytes.Equal(after, fresh) {
		t.Fatalf("NUCA Fig10 after a plain one differs from a fresh NUCA Fig10:\n--- after plain ---\n%s\n--- fresh ---\n%s", after, fresh)
	}
}
