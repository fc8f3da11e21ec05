package phi

import (
	"reflect"
	"testing"

	"cobra/internal/stats"
)

// uncappedTable is the table sizing before the key-space cap: the
// configured capacity rounded down to a power of two, whatever numKeys
// is. It is the oracle the capped model must be indistinguishable from.
func uncappedTable(capacityBytes, tupleBytes int) *table {
	n := capacityBytes / tupleBytes
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return &table{slots: make([]slot, p), mask: uint32(p - 1)}
}

// newUncapped builds a model identical to New's except that every level
// keeps its full configured capacity.
func newUncapped(cfg Config, numKeys uint64) *Model {
	m := New(new(Store), cfg, numKeys)
	for l, b := range [3]int{cfg.L1Bytes, cfg.L2Bytes, cfg.LLCBytes} {
		m.lvls[l] = uncappedTable(b, cfg.TupleBytes)
	}
	return m
}

// TestKeySpaceCapIsExact feeds seeded uniform and skewed streams through
// a capped and an uncapped model and demands identical Bins and Stats —
// over key spaces that are powers of two, that are not, and that exceed
// every level's capacity (where no cap applies).
func TestKeySpaceCapIsExact(t *testing.T) {
	keySpaces := []uint64{1, 7, 1000, 1 << 12, 10000, 1 << 14, 50000, 300000}
	tuples := []int{4, 8, 16}
	batches := []int{0, 512, 4096}
	seed := uint64(0)
	for _, n := range keySpaces {
		for _, tb := range tuples {
			for _, batch := range batches {
				for _, skewed := range []bool{false, true} {
					seed++
					cfg := DefaultConfig(tb, 256)
					cfg.BatchSize = batch
					capped, oracle := New(new(Store), cfg, n), newUncapped(cfg, n)
					r := stats.NewRand(seed)
					updates := 3*int(n) + 5000
					if updates > 100000 {
						updates = 100000
					}
					for i := 0; i < updates; i++ {
						k := r.Uint64n(n)
						if skewed {
							u := r.Float64()
							k = uint64(u * u * u * float64(n))
						}
						v := uint64(r.Intn(7))
						capped.Update(uint32(k), v)
						oracle.Update(uint32(k), v)
					}
					capped.Flush()
					oracle.Flush()
					if capped.St != oracle.St {
						t.Fatalf("n=%d tb=%d batch=%d skewed=%v: stats %+v, uncapped %+v", n, tb, batch, skewed, capped.St, oracle.St)
					}
					if !reflect.DeepEqual(capped.Bins, oracle.Bins) {
						t.Fatalf("n=%d tb=%d batch=%d skewed=%v: bins differ from the uncapped model", n, tb, batch, skewed)
					}
				}
			}
		}
	}
}

// TestKeySpaceCapSizes pins what the cap does to the table sizes: the
// smallest power of two covering the keys, never above the configured
// capacity.
func TestKeySpaceCapSizes(t *testing.T) {
	cfg := DefaultConfig(8, 64) // 4K / 32K / 256K configured slots
	for _, c := range []struct {
		numKeys uint64
		want    [3]int
	}{
		{1, [3]int{1, 1, 1}},
		{1000, [3]int{1024, 1024, 1024}},
		{1 << 14, [3]int{4096, 1 << 14, 1 << 14}},
		{10000, [3]int{4096, 1 << 14, 1 << 14}},
		{300000, [3]int{4096, 1 << 15, 1 << 18}},
	} {
		m := New(new(Store), cfg, c.numKeys)
		for l, want := range c.want {
			if got := len(m.lvls[l].slots); got != want {
				t.Errorf("numKeys=%d level %d: %d slots, want %d", c.numKeys, l, got, want)
			}
		}
	}
}
