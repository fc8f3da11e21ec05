package fault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// activate installs a plan for the duration of the test.
func activate(t *testing.T, p *Plan) {
	t.Helper()
	Activate(p)
	t.Cleanup(Deactivate)
}

func mustParse(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return p
}

// TestDisabledFaultZeroAllocs pins the zero-cost-disabled contract:
// with no active plan, Hit and the stream wrapper allocate nothing.
func TestDisabledFaultZeroAllocs(t *testing.T) {
	Deactivate()
	var w io.Writer = io.Discard
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := Hit(PointJournalSync); err != nil {
			t.Fatal(err)
		}
		if Writer(PointFsxWrite, w) != w {
			t.Fatal("disabled Writer wrapped its stream")
		}
	}); allocs != 0 {
		t.Fatalf("disabled fault path allocates %v per op, want 0", allocs)
	}
}

func BenchmarkFaultHitDisabled(b *testing.B) {
	Deactivate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Hit(PointFsxSync); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAtSchedule: at=N fires exactly on the Nth hit, once.
func TestAtSchedule(t *testing.T) {
	activate(t, mustParse(t, "fsx.sync:at=3:err=enospc"))
	for n := 1; n <= 6; n++ {
		err := Hit(PointFsxSync)
		if n == 3 {
			if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("hit 3: err = %v, want injected ENOSPC", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("hit %d fired unexpectedly: %v", n, err)
		}
	}
	if Hits(PointFsxSync) != 6 || Fires(PointFsxSync) != 1 {
		t.Fatalf("hits=%d fires=%d, want 6/1", Hits(PointFsxSync), Fires(PointFsxSync))
	}
}

// TestEverySchedule: every=N fires on each Nth hit, bounded by times=.
func TestEverySchedule(t *testing.T) {
	activate(t, mustParse(t, "any.point:every=2:times=2:err=eio"))
	var fired []int
	for n := 1; n <= 10; n++ {
		if err := Hit("any.point"); err != nil {
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("payload = %v, want EIO", err)
			}
			fired = append(fired, n)
		}
	}
	if fmt.Sprint(fired) != "[2 4]" {
		t.Fatalf("fired at %v, want [2 4]", fired)
	}
}

// TestProbabilisticDeterminism: a p= schedule fires on an exact,
// replayable set of hit numbers for a given seed — and a different
// seed yields a different (still replayable) set.
func TestProbabilisticDeterminism(t *testing.T) {
	const spec = "exp.cell.complete:p=0.3:err=eio"
	firedSet := func(seed uint64) []int {
		p := mustParse(t, fmt.Sprintf("seed=%d;%s", seed, spec))
		Activate(p)
		defer Deactivate()
		var fired []int
		for n := 1; n <= 200; n++ {
			if Hit(PointCellComplete) != nil {
				fired = append(fired, n)
			}
		}
		return fired
	}
	a, b := firedSet(7), firedSet(7)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("p=0.3 fired %d/200 times", len(a))
	}
	// ~30% of 200, loosely bounded: the mixer should not be degenerate.
	if len(a) < 30 || len(a) > 100 {
		t.Fatalf("p=0.3 fired %d/200 times, far from expectation", len(a))
	}
	if c := firedSet(8); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestProbabilisticDeterminismUnderConcurrency: the decision for hit
// number N is seed-pure, so the total fire count is schedule-
// independent even when hits arrive from many goroutines.
func TestProbabilisticDeterminismUnderConcurrency(t *testing.T) {
	serial := mustParse(t, "seed=11;exp.cell.complete:p=0.25:err=eio")
	Activate(serial)
	for n := 0; n < 400; n++ {
		Hit(PointCellComplete)
	}
	want := Fires(PointCellComplete)
	Deactivate()

	parallel := mustParse(t, "seed=11;exp.cell.complete:p=0.25:err=eio")
	Activate(parallel)
	defer Deactivate()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				Hit(PointCellComplete)
			}
		}()
	}
	wg.Wait()
	if got := Fires(PointCellComplete); got != want {
		t.Fatalf("concurrent fire count %d != serial %d", got, want)
	}
}

// TestShortWriteTearsBuffer: a short-write payload writes a strict
// prefix and reports both ErrShortWrite and ENOSPC.
func TestShortWriteTearsBuffer(t *testing.T) {
	activate(t, mustParse(t, "fsx.write:at=2:err=short"))
	var buf bytes.Buffer
	w := Writer(PointFsxWrite, &buf)
	if _, err := w.Write([]byte("first-line\n")); err != nil {
		t.Fatal(err)
	}
	n, err := w.Write([]byte("second-line\n"))
	if !errors.Is(err, ErrShortWrite) || !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write err = %v", err)
	}
	if n == 0 || n >= len("second-line\n") {
		t.Fatalf("short write wrote %d bytes, want a strict prefix", n)
	}
	if got := buf.String(); got != "first-line\n"+"second-line\n"[:n] {
		t.Fatalf("buffer = %q", got)
	}
}

// TestDelayRule: a pure delay rule injects latency, not errors.
func TestDelayRule(t *testing.T) {
	activate(t, mustParse(t, "any.point:at=1:delay=30ms"))
	start := time.Now()
	if err := Hit("any.point"); err != nil {
		t.Fatalf("delay rule returned error: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delay rule slept only %v", elapsed)
	}
}

// TestParseErrors: malformed specs are rejected loudly.
func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"fsx.sync",                                    // no trigger, no effect
		"fsx.sync:err=enospc",                         // no trigger
		"fsx.sync:at=1:every=2:err=eio",               // two triggers
		"fsx.sync:at=1:err=nope",                      // unknown payload
		"fsx.sync:at=1:frobnicate=3",                  // unknown modifier
		"fsx.sync:at=x:err=eio",                       // bad number
		"fsx.sync:p=1.5:err=eio",                      // probability out of range
		"fsx.sync:at=1:kill=yes",                      // kill takes no value
		"fsx.sync:at=1:err=eio;fsx.sync:at=2:err=eio", // duplicate point
		"seed=zzz",                                    // bad seed
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// TestActivateFromEnv: the chaos harness's cross-process channel.
func TestActivateFromEnv(t *testing.T) {
	t.Setenv(Env, "exp.journal.append:at=2:err=enospc")
	t.Setenv(EnvSeed, "99")
	ok, err := ActivateFromEnv()
	if err != nil || !ok {
		t.Fatalf("ActivateFromEnv = %v, %v", ok, err)
	}
	t.Cleanup(Deactivate)
	if p := active.Load(); p.Seed != 99 {
		t.Fatalf("seed = %d, want 99", p.Seed)
	}
	if Hit(PointJournalAppend) != nil {
		t.Fatal("hit 1 fired")
	}
	if err := Hit(PointJournalAppend); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("hit 2: %v", err)
	}

	t.Setenv(Env, "not:a=valid:spec")
	if _, err := ActivateFromEnv(); err == nil {
		t.Fatal("bad env spec accepted")
	}

	os.Unsetenv(Env)
	if ok, err := ActivateFromEnv(); ok || err != nil {
		t.Fatalf("empty env: %v, %v", ok, err)
	}
}
