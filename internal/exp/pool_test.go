package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runAll drives MapCells with error-only cells: the pool's drain,
// panic and error rules do not depend on the result type.
func runAll(ctx context.Context, workers, n int, cell func(ctx context.Context, i int) error) error {
	_, err := MapCells(ctx, workers, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, cell(ctx, i)
	})
	return err
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-1) = %d, want GOMAXPROCS", got)
	}
}

// TestMapCellsOrdering: results are keyed by cell index, never by
// completion order, at every parallelism level.
func TestMapCellsOrdering(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 4, 0} {
		got, err := MapCells(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got[i] != i*i {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, got[i], i*i)
			}
		}
	}
}

// TestRunCellsLowestError: the reported error is the lowest-indexed
// failure regardless of schedule, and every cell still runs.
func TestRunCellsLowestError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := runAll(context.Background(), workers, 16, func(_ context.Context, i int) error {
			ran.Add(1)
			if i == 3 || i == 11 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "cell 3") {
			t.Fatalf("workers=%d: err = %v, want the lowest-indexed failure (cell 3)", workers, err)
		}
		if ran.Load() != 16 {
			t.Fatalf("workers=%d: ran %d cells, want all 16 despite the failure", workers, ran.Load())
		}
	}
}

func TestRunCellsEmpty(t *testing.T) {
	if err := runAll(context.Background(), 4, 0, func(context.Context, int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunCellsPanicIsolation is the regression for the old
// crash-the-process behaviour: a panicking cell must surface as the
// lowest-indexed deterministic *CellError while every remaining cell
// still runs, at any parallelism.
func TestRunCellsPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		var ran atomic.Int64
		err := runAll(context.Background(), workers, 16, func(_ context.Context, i int) error {
			ran.Add(1)
			if i == 5 || i == 12 {
				panic(fmt.Sprintf("cell %d exploded", i))
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic swallowed entirely", workers)
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: err = %T %v, want *CellError", workers, err, err)
		}
		if ce.Index != 5 {
			t.Fatalf("workers=%d: reported cell %d, want the lowest-indexed panic (5)", workers, ce.Index)
		}
		if want := "exp: cell 5 panicked: cell 5 exploded"; ce.Error() != want {
			t.Fatalf("workers=%d: error %q, want deterministic %q", workers, ce.Error(), want)
		}
		if len(ce.Stack) == 0 {
			t.Fatalf("workers=%d: panic stack not captured", workers)
		}
		if ran.Load() != 16 {
			t.Fatalf("workers=%d: ran %d cells, want all 16 despite the panics", workers, ran.Load())
		}
	}
}

// TestRunCellsCtxCancelDrains: cancellation stops dispatch of new cells
// but completed cells keep their results, and the run reports
// ErrInterrupted.
func TestRunCellsCtxCancelDrains(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		const n, stopAfter = 64, 5
		var done atomic.Int64
		err := runAll(ctx, workers, n, func(_ context.Context, i int) error {
			// Cells take long enough that the pool cannot race through
			// all n of them inside the cancellation window.
			time.Sleep(time.Millisecond)
			if done.Add(1) == stopAfter {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("workers=%d: err = %v, want ErrInterrupted", workers, err)
		}
		if d := done.Load(); d < stopAfter || d >= n {
			t.Fatalf("workers=%d: %d cells completed; want >= %d (drain) and < %d (stopped dispatch)", workers, d, stopAfter, n)
		}
	}
}

// TestRunCellsCtxCellErrorBeatsInterrupt: a genuine cell failure is
// reported in preference to the interruption, keeping error reporting
// deterministic.
func TestRunCellsCtxCellErrorBeatsInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := runAll(ctx, 1, 8, func(_ context.Context, i int) error {
		if i == 2 {
			cancel()
			return boom
		}
		return nil
	})
	cancel()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the genuine cell error", err)
	}
}

// TestRunCellsCtxCompletedRunNotInterrupted: a run whose context is
// cancelled only after every cell finished reports success.
func TestRunCellsCtxCompletedRunNotInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := runAll(ctx, 2, 8, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestWithCellTimeout: cells receive a per-cell deadline context; a
// cell that respects it fails individually without wedging the pool.
func TestWithCellTimeout(t *testing.T) {
	ctx := WithCellTimeout(context.Background(), time.Millisecond)
	err := runAll(ctx, 2, 4, func(cctx context.Context, i int) error {
		if i == 1 {
			select {
			case <-cctx.Done():
				return fmt.Errorf("cell %d: %w", i, cctx.Err())
			case <-time.After(5 * time.Second):
				return errors.New("per-cell deadline never fired")
			}
		}
		if _, ok := cctx.Deadline(); !ok {
			return fmt.Errorf("cell %d: no deadline set", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("err = %v, want the timed-out cell's deadline error", err)
	}
}

// TestMapCellsCtxDropsResultsOnError: under cancellation no partial
// slice escapes.
func TestMapCellsCtxDropsResultsOnError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCells(ctx, 2, 8, func(context.Context, int) (int, error) { return 1, nil })
	if err == nil || out != nil {
		t.Fatalf("out=%v err=%v, want nil slice and interrupt error", out, err)
	}
}

// TestRunCellsBoundedConcurrency: no more than `workers` cells are ever
// in flight at once.
func TestRunCellsBoundedConcurrency(t *testing.T) {
	const workers, n = 2, 32
	var inFlight, peak atomic.Int64
	err := runAll(context.Background(), workers, n, func(_ context.Context, i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		for j := 0; j < 1000; j++ {
			runtime.Gosched()
		}
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}
