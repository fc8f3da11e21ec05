package exp

// The parallel experiment executor. Every figure is a collection of
// independent simulation cells — one (app, input, scheme, bin-count)
// run, each owning its own sim.Mach — so cells are embarrassingly
// parallel. MapCells schedules them on a bounded worker pool
// while keeping results strictly ordered by cell index: a figure built
// at -parallel N is byte-identical to the serial one, because each cell
// writes only its own slot and aggregation happens after the barrier in
// enumeration order (never completion order).
//
// Robustness contract (the fault-tolerance layer rests on it):
//
//   - A panicking cell NEVER kills the process: the panic is recovered
//     at the cell boundary and surfaces as a *CellError carrying the
//     index, the recovered value, and the goroutine stack. All other
//     cells still run.
//   - Cancelling the context stops dispatch of NEW cells; cells already
//     in flight drain to completion (their results — and any journal
//     appends they perform — are kept). The run then reports
//     ErrInterrupted unless a real cell failure takes precedence.
//   - Error reporting is deterministic under any schedule: the lowest-
//     indexed genuine cell failure wins; interruption is only reported
//     when no cell genuinely failed.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cobra/internal/obsv"
)

// ErrInterrupted reports that a campaign stopped early because its
// context was cancelled (Ctrl-C, -timeout, programmatic cancel). Cells
// completed before the interrupt remain valid — with a checkpoint
// journal they are replayed on the next -resume run.
var ErrInterrupted = errors.New("exp: campaign interrupted")

// CellError is a cell panic converted into a deterministic error: the
// process survives, every other cell still runs, and the report names
// the same (lowest-indexed) cell under any schedule.
type CellError struct {
	Index     int    // cell index within the figure's enumeration
	Recovered string // fmt.Sprint of the recovered panic value
	Stack     []byte // goroutine stack at the panic site
}

func (e *CellError) Error() string {
	return fmt.Sprintf("exp: cell %d panicked: %s", e.Index, e.Recovered)
}

// cellTimeoutKey carries the optional per-cell timeout through the
// campaign context (see WithCellTimeout).
type cellTimeoutKey struct{}

// WithCellTimeout returns a context under which every cell dispatched
// by MapCells gets its own child context expiring after d. Cells that
// respect their context (long external steps, future remote backends)
// fail individually with a deadline error instead of wedging the whole
// campaign; d <= 0 disables the limit.
func WithCellTimeout(ctx context.Context, d time.Duration) context.Context {
	return context.WithValue(ctx, cellTimeoutKey{}, d)
}

func cellTimeout(ctx context.Context) time.Duration {
	d, _ := ctx.Value(cellTimeoutKey{}).(time.Duration)
	return d
}

// Workers resolves a parallelism request: n > 0 means exactly n
// workers; n <= 0 means one worker per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// runCell executes one cell behind a panic barrier with its (optional)
// per-cell deadline. This is the single place a worker touches user
// code, so it is the single place a panic can be converted into data.
func runCell(ctx context.Context, i int, cell func(ctx context.Context, i int) error) (err error) {
	if d := cellTimeout(ctx); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &CellError{Index: i, Recovered: fmt.Sprint(r), Stack: debug.Stack()}
		}
	}()
	return cell(ctx, i)
}

// obsCell wraps runCell with the harness observability hooks: per-cell
// wall-clock latency ("exp.cell.wall") and completion/failure counts.
// With observability disabled (nil default registry) this is a single
// atomic load plus a nil check — zero allocations and no clock reads
// on the hot path (pinned by TestDisabledRegistryAddsZeroAllocs and
// BenchmarkObsv*).
func obsCell(ctx context.Context, i int, cell func(ctx context.Context, i int) error) error {
	reg := obsv.Default()
	t := reg.Timer("exp.cell.wall")
	err := runCell(ctx, i, cell)
	t.Stop()
	if reg != nil {
		if err != nil {
			reg.Counter("exp.cells.failed").Add(1)
		} else {
			reg.Counter("exp.cells.completed").Add(1)
		}
	}
	return err
}

// runCells executes cell(i) for every i in [0, n) on a pool of at most
// `workers` goroutines (resolved via Workers). workers == 1 runs the
// cells serially on the calling goroutine — the exact serial semantics
// the determinism tests compare against. Cancelling ctx stops the
// dispatch of new cells while in-flight cells drain to completion.
//
// Every cell runs even if an earlier cell fails (cells are independent
// simulations; partial results stay valid). The result is the
// lowest-indexed genuine cell error if any cell failed — deterministic
// under any schedule — an ErrInterrupted-wrapping error if the run was
// cut short without a cell failure, or nil. Panics are isolated per
// cell (see CellError).
func runCells(ctx context.Context, workers, n int, cell func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var started int
	if workers == 1 {
		for started = 0; started < n; started++ {
			if ctx.Err() != nil {
				break
			}
			errs[started] = obsCell(ctx, started, cell)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if ctx.Err() != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = obsCell(ctx, i, cell)
				}
			}()
		}
		wg.Wait()
		started = int(next.Load())
		if started > n {
			started = n
		}
	}
	// Deterministic error selection: the lowest-indexed genuine failure
	// wins; interruption is reported only when nothing genuinely failed.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil && started < n {
		return fmt.Errorf("%w after %d/%d cells (%v)", ErrInterrupted, started, n, err)
	}
	return nil
}

// MapCells runs cell(i) for every i in [0, n) on the bounded pool
// under ctx and returns the results keyed by cell index (never
// completion order), with runCells's drain, panic and
// deterministic-error semantics; on error it returns no results.
func MapCells[T any](ctx context.Context, workers, n int, cell func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := runCells(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := cell(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
