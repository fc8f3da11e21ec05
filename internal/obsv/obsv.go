// Package obsv is the harness's observability subsystem: a hierarchical
// metrics registry (counters, gauges, duration histograms), a live
// progress line, a structured JSONL event log, and the run manifest
// that makes any two campaigns diffable.
//
// The paper's claims are metric-shaped — COBRA wins because of *where*
// instructions, branch misses, and DRAM line transfers go per phase —
// so the harness that regenerates its figures must itself be legible:
// per-cell latency, per-phase wall-clock, event rates, cache hit
// ratios, and checkpoint replay counts, not just final table bytes.
//
// Design contract (the zero-cost-disabled rule):
//
//   - Observability is OFF by default. The process-wide registry
//     (Default) is nil until a CLI opts in via SetDefault.
//   - Every method in this package is nil-receiver safe: a nil
//     *Registry yields nil *Counter/*Gauge/*Histogram and zero-value
//     Timers, and every operation on those is a no-op. Instrumented
//     hot paths therefore pay exactly one atomic pointer load plus a
//     nil check — and, pinned by test and benchmark, ZERO allocations
//     and no time.Now calls — when observability is disabled.
//   - Enabled instruments are lock-free on the hot path: counters and
//     gauges are single atomics, histograms are fixed arrays of atomic
//     buckets. Registration (name -> instrument) takes a lock, so
//     instrumented code should either hold instruments or tolerate one
//     map lookup per operation (fine for per-cell/per-run granularity).
//   - Instrumentation must never alter simulated results: registry
//     metrics are harness wall-clock observations, entirely disjoint
//     from sim.Metrics, and figure table bytes are asserted identical
//     with observability on and off.
//
// Hierarchy is expressed by dotted metric names ("exp.cell.wall",
// "sim.pbsw.binning.wall"); Scope returns a view that prefixes every
// name, and Scope on a nil registry is nil, so disabled-ness propagates
// through subsystem handles for free.
package obsv

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named view onto a shared instrument store. The zero
// *Registry (nil) is the disabled registry: every method no-ops.
type Registry struct {
	prefix string
	s      *store
}

// store holds the instruments; all Registry views over one hierarchy
// share it. Lookups take the read lock; first registration the write
// lock. Instrument operations themselves are lock-free.
type store struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// New returns a fresh enabled registry.
func New() *Registry {
	return &Registry{s: &store{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}}
}

// defaultReg is the process-wide registry (nil = observability off).
var defaultReg atomic.Pointer[Registry]

// Default returns the process-wide registry, or nil when observability
// is disabled. The load is a single atomic pointer read.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs (or, with nil, removes) the process-wide
// registry. CLIs call this once at startup; tests must restore the
// previous value.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// Scope returns a child view that prefixes every metric name with
// "name.". Scope of nil is nil, so a disabled registry propagates
// through subsystem handles without any checks at the leaves.
func (r *Registry) Scope(name string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{prefix: r.full(name), s: r.s}
}

func (r *Registry) full(name string) string {
	if r.prefix == "" {
		return name
	}
	return r.prefix + "." + name
}

// Counter returns (registering on first use) the named counter, or nil
// on a disabled registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	full := r.full(name)
	r.s.mu.RLock()
	c := r.s.counts[full]
	r.s.mu.RUnlock()
	if c != nil {
		return c
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if c = r.s.counts[full]; c == nil {
		c = &Counter{}
		r.s.counts[full] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge, or nil on
// a disabled registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	full := r.full(name)
	r.s.mu.RLock()
	g := r.s.gauges[full]
	r.s.mu.RUnlock()
	if g != nil {
		return g
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if g = r.s.gauges[full]; g == nil {
		g = &Gauge{}
		r.s.gauges[full] = g
	}
	return g
}

// Histogram returns (registering on first use) the named duration
// histogram, or nil on a disabled registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	full := r.full(name)
	r.s.mu.RLock()
	h := r.s.hists[full]
	r.s.mu.RUnlock()
	if h != nil {
		return h
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if h = r.s.hists[full]; h == nil {
		h = &Histogram{}
		r.s.hists[full] = h
	}
	return h
}

// Timer starts a wall-clock measurement destined for the named
// histogram. On a disabled registry the zero Timer is returned and no
// clock is read; Stop on it is a no-op.
func (r *Registry) Timer(name string) Timer {
	if r == nil {
		return Timer{}
	}
	return Timer{h: r.Histogram(name), start: time.Now()}
}

// Counter is a monotonically increasing event count. A nil *Counter is
// a valid no-op instrument.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64 sample. A nil *Gauge is a valid
// no-op instrument.
type Gauge struct{ bits atomic.Uint64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the most recent sample (0 for nil or never-set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the bucket count of the exponential duration
// histogram: bucket i holds observations in [2^i, 2^(i+1)) microseconds
// (bucket 0 is < 2µs), so 44 buckets span sub-microsecond to ~200 days.
const histBuckets = 44

// Histogram is a lock-free exponential-bucket duration histogram. A
// nil *Histogram is a valid no-op instrument.
type Histogram struct {
	count  atomic.Uint64
	sumNS  atomic.Int64
	minNS  atomic.Int64 // 0 means unset (durations observed are >= 0)
	maxNS  atomic.Int64
	bucket [histBuckets]atomic.Uint64
}

// bucketFor maps a duration to its exponential bucket index:
// floor(log2(µs)), clamped to the last bucket.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 1 && b < histBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := d.Nanoseconds()
	h.count.Add(1)
	h.sumNS.Add(ns)
	h.bucket[bucketFor(d)].Add(1)
	// min: CAS down (0 sentinel = unset).
	for {
		cur := h.minNS.Load()
		if cur != 0 && cur <= ns {
			break
		}
		set := ns
		if set == 0 {
			set = 1 // preserve the unset sentinel; 1ns rounding is noise
		}
		if h.minNS.CompareAndSwap(cur, set) {
			break
		}
	}
	// max: CAS up.
	for {
		cur := h.maxNS.Load()
		if cur >= ns {
			break
		}
		if h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration (0 for nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
}

// Mean returns the mean observed duration (0 when empty or nil).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0,1]) from the exponential buckets: the upper edge of the bucket in
// which the quantile falls, clamped to the observed max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.bucket[i].Load()
		if seen >= rank {
			// Bucket i spans [2^i, 2^(i+1)) µs; the exclusive upper edge
			// keeps the estimate >= every observation in the bucket.
			upper := time.Duration(1<<uint(i+1)) * time.Microsecond
			if mx := time.Duration(h.maxNS.Load()); mx > 0 && upper > mx {
				upper = mx
			}
			return upper
		}
	}
	return time.Duration(h.maxNS.Load())
}

// Timer is an in-flight wall-clock measurement. The zero Timer (from a
// disabled registry) is a no-op and never reads the clock.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Stop records the elapsed time into the timer's histogram. Stop on a
// zero Timer is a no-op.
func (t Timer) Stop() {
	if t.h == nil {
		return
	}
	t.h.Observe(time.Since(t.start))
}

// MetricValue is the snapshot form of one instrument, chosen so the
// encoding is stable and diffable across runs.
type MetricValue struct {
	Kind  string  `json:"kind"` // "counter" | "gauge" | "histogram"
	Count uint64  `json:"count,omitempty"`
	Value float64 `json:"value,omitempty"`
	// Histogram summary (seconds).
	SumSeconds  float64 `json:"sum_s,omitempty"`
	MeanSeconds float64 `json:"mean_s,omitempty"`
	MinSeconds  float64 `json:"min_s,omitempty"`
	MaxSeconds  float64 `json:"max_s,omitempty"`
	P50Seconds  float64 `json:"p50_s,omitempty"`
	P99Seconds  float64 `json:"p99_s,omitempty"`
}

// Snapshot returns the current value of every instrument registered
// anywhere in this registry's hierarchy, keyed by full dotted name.
// A nil registry snapshots to an empty map.
func (r *Registry) Snapshot() map[string]MetricValue {
	out := map[string]MetricValue{}
	if r == nil {
		return out
	}
	r.s.mu.RLock()
	defer r.s.mu.RUnlock()
	for name, c := range r.s.counts {
		out[name] = MetricValue{Kind: "counter", Count: c.Value()}
	}
	for name, g := range r.s.gauges {
		out[name] = MetricValue{Kind: "gauge", Value: g.Value()}
	}
	for name, h := range r.s.hists {
		out[name] = MetricValue{
			Kind:        "histogram",
			Count:       h.Count(),
			SumSeconds:  h.Sum().Seconds(),
			MeanSeconds: h.Mean().Seconds(),
			MinSeconds:  time.Duration(h.minNS.Load()).Seconds(),
			MaxSeconds:  time.Duration(h.maxNS.Load()).Seconds(),
			P50Seconds:  h.Quantile(0.50).Seconds(),
			P99Seconds:  h.Quantile(0.99).Seconds(),
		}
	}
	return out
}
