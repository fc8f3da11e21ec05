package core

import (
	"testing"

	"cobra/internal/cpu"
	"cobra/internal/mem"
	"cobra/internal/stats"
)

// BenchmarkBinUpdate measures the modeled binupdate datapath: L1
// C-Buffer append, hierarchical evictions, DES eviction buffers.
func BenchmarkBinUpdate(b *testing.B) {
	h := mem.New(mem.DefaultConfig())
	c := cpu.New(cpu.DefaultConfig(), h)
	m := NewMachine(new(CBufStore), c, DefaultConfig(8))
	if err := m.BinInit(1 << 20); err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(1)
	keys := make([]uint32, 1<<16)
	for i := range keys {
		keys[i] = uint32(r.Uint64n(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BinUpdate(keys[i&(1<<16-1)], uint64(i))
	}
}

// BenchmarkBinUpdateCoalescing measures COBRA-COMM's LLC coalescing
// scan on a skewed stream.
func BenchmarkBinUpdateCoalescing(b *testing.B) {
	h := mem.New(mem.DefaultConfig())
	c := cpu.New(cpu.DefaultConfig(), h)
	cfg := DefaultConfig(8)
	cfg.Coalesce = true
	m := NewMachine(new(CBufStore), c, cfg)
	if err := m.BinInit(1 << 20); err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(1)
	keys := make([]uint32, 1<<16)
	for i := range keys {
		if r.Float64() < 0.8 {
			keys[i] = uint32(r.Uint64n(1 << 13))
		} else {
			keys[i] = uint32(r.Uint64n(1 << 20))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BinUpdate(keys[i&(1<<16-1)], 1)
	}
}
