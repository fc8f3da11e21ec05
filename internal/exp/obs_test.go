package exp

// Overhead regression for the observability hooks on the cell hot path.
// The contract (documented in internal/obsv): with the default registry
// nil, instrumentation costs one atomic load plus a nil check — zero
// allocations, no clock reads. These pins keep that true as the harness
// grows.

import (
	"context"
	"sync/atomic"
	"testing"

	"cobra/internal/obsv"
)

// swapDefault installs r as the process registry and returns a restore
// function, so tests never leak observability state into each other.
func swapDefault(r *obsv.Registry) func() {
	prev := obsv.Default()
	obsv.SetDefault(r)
	return func() { obsv.SetDefault(prev) }
}

// TestDisabledRegistryAddsZeroAllocs pins the zero-cost-disabled rule
// at the exact seam every campaign cell passes through: obsCell, the
// wrapper MapCells puts around user code.
func TestDisabledRegistryAddsZeroAllocs(t *testing.T) {
	defer swapDefault(nil)()
	ctx := context.Background()
	cell := func(context.Context, int) error { return nil }
	if avg := testing.AllocsPerRun(200, func() {
		if err := obsCell(ctx, 0, cell); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("disabled observability allocates %.1f objects per cell, want 0", avg)
	}
}

// TestEnabledRegistryCountsCells is the counterpart sanity check: with
// a registry installed the same path actually records latency and
// completion counts (otherwise the zero-alloc pin could be trivially
// satisfied by instrumentation that never fires).
func TestEnabledRegistryCountsCells(t *testing.T) {
	reg := obsv.New()
	defer swapDefault(reg)()
	var fail atomic.Bool
	cell := func(_ context.Context, i int) error {
		if fail.Load() {
			panic("boom")
		}
		return nil
	}
	const n = 8
	if err := runAll(context.Background(), 2, n, cell); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if err := runAll(context.Background(), 1, 1, cell); err == nil {
		t.Fatal("expected the panicking cell to fail")
	}
	if got := reg.Counter("exp.cells.completed").Value(); got != n {
		t.Fatalf("completed = %d, want %d", got, n)
	}
	if got := reg.Counter("exp.cells.failed").Value(); got != 1 {
		t.Fatalf("failed = %d, want 1", got)
	}
	if got := reg.Histogram("exp.cell.wall").Count(); got != n+1 {
		t.Fatalf("wall observations = %d, want %d", got, n+1)
	}
}

// benchCells drives the MapCells hot path with a cheap but non-empty
// cell, the shape the overhead comparison is about: the harness wrapper
// must stay negligible next to even a trivial cell body.
func benchCells(b *testing.B) {
	b.Helper()
	b.ReportAllocs()
	var sink atomic.Uint64
	cell := func(_ context.Context, i int) error {
		sink.Add(uint64(i))
		return nil
	}
	b.ResetTimer()
	for b.Loop() {
		if err := runAll(context.Background(), 1, 64, cell); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsvDisabled measures the cell dispatch path with
// observability off — the default for every test and plain CLI run.
func BenchmarkObsvDisabled(b *testing.B) {
	defer swapDefault(nil)()
	benchCells(b)
}

// BenchmarkObsvEnabled measures the same path with a live registry, so
// `benchstat` (or eyeballs) can confirm the enabled overhead stays in
// the tens-of-nanoseconds-per-cell range.
func BenchmarkObsvEnabled(b *testing.B) {
	defer swapDefault(obsv.New())()
	benchCells(b)
}
