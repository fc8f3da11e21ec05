package cache

import (
	"testing"

	"cobra/internal/stats"
)

func benchCache(p PolicyKind) *Cache {
	return New(Config{Name: "B", SizeB: 32 << 10, Ways: 8, Policy: p})
}

func benchAddrs(n int) []uint64 {
	r := stats.NewRand(1)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = r.Uint64n(1 << 24)
	}
	return addrs
}

func BenchmarkAccessBitPLRU(b *testing.B) {
	c := benchCache(BitPLRU)
	addrs := benchAddrs(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(1<<16-1)], i&3 == 0)
	}
}

func BenchmarkAccessDRRIP(b *testing.B) {
	c := New(Config{Name: "B", SizeB: 2 << 20, Ways: 16, Policy: DRRIP})
	addrs := benchAddrs(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(1<<16-1)], false)
	}
}

// BenchmarkCacheAccessHot guards the packed-metadata + location-hint win:
// a hit-dominated access stream with heavy same-line reuse, the shape
// of every simulated access in the Binning/Accumulate inner loops.
func BenchmarkCacheAccessHot(b *testing.B) {
	c := benchCache(BitPLRU)
	// 64-line working set fits the 512-line cache: ~100% hits after
	// warmup. Four consecutive touches per line model word-granular
	// reuse inside one line (the location-hint fast path).
	const lines = 64
	addrs := make([]uint64, lines*4)
	for i := range addrs {
		addrs[i] = uint64(i/4)*LineSize + uint64(i%4)*8
	}
	for _, a := range addrs {
		c.Access(a, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], i&7 == 0)
	}
}

func BenchmarkAccessSequential(b *testing.B) {
	c := benchCache(BitPLRU)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*8, false)
	}
}
