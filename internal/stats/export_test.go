package stats

import "math"

// Test-only helpers: nothing outside this package's tests takes the
// previous power of two, buckets values into a histogram, splits a
// generator or draws an exponential variate.

// PrevPow2 returns the largest power of two <= n for n >= 1; it panics on 0.
func PrevPow2(n uint64) uint64 {
	if n == 0 {
		panic("stats: PrevPow2(0)")
	}
	p := uint64(1)
	for p<<1 <= n && p<<1 != 0 {
		p <<= 1
	}
	return p
}

// Histogram counts values into n equal-width buckets over [lo, hi).
// Values outside the range clamp into the edge buckets.
type Histogram struct {
	Lo, Hi  float64
	Buckets []uint64
	Count   uint64
}

// NewHistogram returns a histogram with n buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]uint64, n)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	idx := int(float64(len(h.Buckets)) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Buckets) {
		idx = len(h.Buckets) - 1
	}
	h.Buckets[idx]++
	h.Count++
}

// Frac returns the fraction of observations in bucket i.
func (h *Histogram) Frac(i int) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Buckets[i]) / float64(h.Count)
}

// Split derives an independent generator; the i-th split of a seed is
// stable across calls, which lets parallel workers draw disjoint streams.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64())
}

// Exp returns an exponentially distributed float64 with rate 1.
func (r *Rand) Exp() float64 {
	// Inverse CDF; Float64 never returns 1.0 so the log argument is > 0.
	return -math.Log(1 - r.Float64())
}
