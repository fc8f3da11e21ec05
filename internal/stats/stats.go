package stats

import (
	"math"
	"sort"
)

// GeoMean returns the geometric mean of xs. Non-positive entries are
// skipped (a ratio of zero would collapse the mean to zero and hide the
// rest of the distribution). It returns 0 when no usable entries exist.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank on a sorted copy. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(c))))
	return c[rank-1]
}

// Log2Ceil returns ceil(log2(n)) for n >= 1, and 0 for n <= 1.
func Log2Ceil(n uint64) uint {
	if n <= 1 {
		return 0
	}
	k := uint(0)
	for v := n - 1; v > 0; v >>= 1 {
		k++
	}
	return k
}

// NextPow2 returns the smallest power of two >= n (n >= 1). NextPow2(0) = 1.
func NextPow2(n uint64) uint64 {
	return 1 << Log2Ceil(maxU64(n, 1))
}

// IsPow2 reports whether n is a power of two (n > 0).
func IsPow2(n uint64) bool { return n > 0 && n&(n-1) == 0 }

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// DivCeil returns ceil(a/b) for b > 0.
func DivCeil(a, b uint64) uint64 { return (a + b - 1) / b }
