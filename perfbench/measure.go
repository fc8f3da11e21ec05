package main

// Measurement primitives: host clocks (wall, user+sys CPU, peak RSS),
// sample statistics with an explicit tail-sample rule, and the span
// recorder the traced run uses around calls into each layer.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuNow returns the process's user+sys CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS releases freed heap to the OS and restarts the kernel's
// peak-RSS (VmHWM) watermark, so the next peakRSSMB reading covers only
// what ran after this call. Reports whether the reset took effect; when
// it did not, peakRSSMB covers the process lifetime.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}

// stealTicks reads the host's cumulative CPU ticks and the stolen ones
// from /proc/stat (zeros when unavailable).
func stealTicks() [2]uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return [2]uint64{}
	}
	var t [2]uint64
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			t[0] += v
		}
		if i == 7 {
			t[1] = v
		}
	}
	return t
}

// stealFrac is the stolen share of the host's CPU time between two
// stealTicks readings.
func stealFrac(a, b [2]uint64) float64 {
	if b[0] <= a[0] {
		return 0
	}
	return float64(b[1]-a[1]) / float64(b[0]-a[0])
}

// allocMB is the cumulative heap allocation of the process in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// minTail is the number of samples a percentile needs beyond it before
// it is reported: a p99 over fewer than 1000 samples is mostly noise.
const minTail = 10

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks). It refuses a quantile with fewer than minTail samples
// above it, so a reported p99 always rests on at least ten samples in
// its tail. xs is not modified.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("quantile of no samples")
	}
	if q > 0.5 {
		if beyond := float64(n) * (1 - q); beyond < minTail {
			return 0, fmt.Errorf("p%g needs %d samples beyond it, have %.1f of %d", 100*q, minTail, beyond, n)
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

// median is quantile(xs, 0.5); xs must be non-empty.
func median(xs []float64) float64 {
	m, err := quantile(xs, 0.5)
	if err != nil {
		return 0
	}
	return m
}

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`  // index of the enclosing span, -1 at top level
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer records spans in memory; they are written out with the
// results. A nil *tracer records nothing, so untraced runs call the
// same code without branching. begin nests spans on one goroutine;
// record adds a finished span from any goroutine.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  []int // stack of open span indices (begin/end only)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns a
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.since()})
	t.open = append(t.open, idx)
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[idx].End = t.since()
		t.open = t.open[:len(t.open)-1]
	}
}

// record adds a finished span under parent (-1: top level) and returns
// its index.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return len(t.spans) - 1
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	end := t.begin(name)
	defer end()
	return f()
}

// total sums the durations of spans with the given name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// coverage is the share of [from, to] (seconds since start) covered by
// the union of top-level spans: how much of the traced wall time the
// per-layer numbers explain. Concurrent spans count once.
func (t *tracer) coverage(from, to float64) float64 {
	if t == nil || to <= from {
		return 0
	}
	t.mu.Lock()
	var iv [][2]float64
	for _, sp := range t.spans {
		lo, hi := math.Max(sp.Start, from), math.Min(sp.End, to)
		if sp.Parent == -1 && hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach float64
	reach = from
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		covered += x[1] - math.Max(x[0], reach)
		reach = x[1]
	}
	return covered / (to - from)
}

// since is seconds since the tracer started.
func (t *tracer) since() float64 { return time.Since(t.t0).Seconds() }
