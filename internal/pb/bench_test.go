package pb

import (
	"testing"

	"cobra/internal/stats"
)

func benchKeys(n, numKeys int) []uint32 {
	r := stats.NewRand(1)
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(r.Intn(numKeys))
	}
	return keys
}

func BenchmarkHistogramPB(b *testing.B) {
	const n, k = 1 << 22, 1 << 20
	keys := benchKeys(n, k)
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Histogram(keys, k, Options{})
	}
}

func BenchmarkHistogramNaive(b *testing.B) {
	const n, k = 1 << 22, 1 << 20
	keys := benchKeys(n, k)
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := make([]uint32, k)
		for _, key := range keys {
			counts[key]++
		}
	}
}

func BenchmarkHistogramPBSkipCount(b *testing.B) {
	const n, k = 1 << 22, 1 << 20
	keys := benchKeys(n, k)
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Histogram(keys, k, Options{SkipCount: true})
	}
}
