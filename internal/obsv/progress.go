package obsv

// Live campaign progress: one carriage-return-refreshed stderr line
// with completed/total cells, replay count, throughput, and an ETA.
//
// The line is checkpoint-aware: cells replayed from a resume journal
// are counted (and shown) separately from freshly simulated ones, so
// the throughput and ETA reflect real simulation work. Totals are
// declared incrementally — each figure registers its cell count as it
// starts — so the ETA firms up as the campaign unfolds.
//
// A nil *Progress is a valid no-op sink (the disabled fast path), and
// the renderer writes only to its own writer (stderr in the CLI), so
// figure table bytes are untouched by progress being on.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Progress tracks and renders campaign completion. Create with
// StartProgress; all methods are safe for concurrent use and no-ops on
// nil.
type Progress struct {
	w     io.Writer
	start time.Time

	total    atomic.Int64
	done     atomic.Int64 // completed cells, replays included
	replayed atomic.Int64

	mu    sync.Mutex
	label string
	width int // widest line rendered, for clean \r overwrites

	stop chan struct{}
	dead chan struct{}
}

// StartProgress begins rendering to w every interval (0 means 250ms).
// Call Finish to stop the renderer and print the final line.
func StartProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	p := &Progress{w: w, start: time.Now(), stop: make(chan struct{}), dead: make(chan struct{})}
	go func() {
		defer close(p.dead)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.render(false)
			}
		}
	}()
	return p
}

// SetLabel names the campaign unit currently running (e.g. the figure).
func (p *Progress) SetLabel(label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.label = label
	p.mu.Unlock()
}

// AddTotal declares n more expected cells.
func (p *Progress) AddTotal(n int) {
	if p == nil {
		return
	}
	p.total.Add(int64(n))
}

// CellDone records one completed cell (fresh or replayed).
func (p *Progress) CellDone() {
	if p == nil {
		return
	}
	p.done.Add(1)
}

// Replayed records that a completed cell was served from the
// checkpoint journal rather than simulated.
func (p *Progress) Replayed() {
	if p == nil {
		return
	}
	p.replayed.Add(1)
}

// Line renders the current progress state (without the \r framing).
func (p *Progress) Line() string {
	if p == nil {
		return ""
	}
	done, total, replayed := p.done.Load(), p.total.Load(), p.replayed.Load()
	elapsed := time.Since(p.start)
	p.mu.Lock()
	label := p.label
	p.mu.Unlock()

	var b strings.Builder
	if label != "" {
		fmt.Fprintf(&b, "%s · ", label)
	}
	fmt.Fprintf(&b, "%d/%d cells", done, total)
	if replayed > 0 {
		fmt.Fprintf(&b, " (%d replayed)", replayed)
	}
	// Throughput and ETA come from freshly simulated cells only:
	// replays complete in microseconds and would poison the forecast.
	fresh := done - replayed
	if fresh > 0 && elapsed > 0 {
		rate := float64(fresh) / elapsed.Seconds()
		fmt.Fprintf(&b, " · %.1f cells/s", rate)
		if remaining := total - done; remaining > 0 && rate > 0 {
			eta := time.Duration(float64(remaining)/rate) * time.Second
			fmt.Fprintf(&b, " · eta %s", eta.Round(time.Second))
		}
	}
	fmt.Fprintf(&b, " · elapsed %s", elapsed.Round(time.Second))
	return b.String()
}

// render writes the refreshed line; final appends a newline so later
// output starts clean.
func (p *Progress) render(final bool) {
	line := p.Line()
	p.mu.Lock()
	defer p.mu.Unlock()
	pad := ""
	if n := p.width - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	if len(line) > p.width {
		p.width = len(line)
	}
	end := ""
	if final {
		end = "\n"
	}
	fmt.Fprintf(p.w, "\r%s%s%s", line, pad, end)
}

// Finish stops the renderer and prints the final line. Safe to call
// once; no-op on nil.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.dead
	p.render(true)
}
