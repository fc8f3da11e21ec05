package phi

import (
	"testing"
	"testing/quick"

	"cobra/internal/stats"
)

func TestSumsPreserved(t *testing.T) {
	const n = 1 << 16
	m := New(new(Store), DefaultConfig(8, 64), n)
	want := make([]uint64, n)
	r := stats.NewRand(1)
	for i := 0; i < 300000; i++ {
		k := uint32(r.Uint64n(n))
		v := uint64(r.Intn(5))
		m.Update(k, v)
		want[k] += v
	}
	m.Flush()
	got := make([]uint64, n)
	for _, bin := range m.Bins {
		for _, tp := range bin {
			got[tp.Key] += tp.Val
		}
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("key %d: %d vs %d", k, got[k], want[k])
		}
	}
}

func TestSumsPreservedProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := uint64(nRaw%4000) + 16
		m := New(new(Store), DefaultConfig(8, 16), n)
		want := make(map[uint32]uint64)
		r := stats.NewRand(seed)
		for i := 0; i < 5000; i++ {
			k := uint32(r.Uint64n(n))
			m.Update(k, 1)
			want[k]++
		}
		m.Flush()
		got := make(map[uint32]uint64)
		for _, bin := range m.Bins {
			for _, tp := range bin {
				got[tp.Key] += tp.Val
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedStreamCoalescesHeavily(t *testing.T) {
	const n = 1 << 20
	m := New(new(Store), DefaultConfig(8, 64), n)
	r := stats.NewRand(3)
	const updates = 500000
	for i := 0; i < updates; i++ {
		var k uint32
		if r.Float64() < 0.8 {
			k = uint32(r.Uint64n(n / 100)) // hot 1%
		} else {
			k = uint32(r.Uint64n(n))
		}
		m.Update(k, 1)
	}
	m.Flush()
	if rate := m.St.CoalesceRate(); rate < 0.3 {
		t.Fatalf("skewed stream coalesce rate %.3f, want > 0.3", rate)
	}
	if m.St.MemTuples >= updates {
		t.Fatal("no traffic reduction")
	}
	// The paper: the overwhelming share of coalescing happens at the
	// LLC (97% on average) because it is by far the largest table.
	if share := m.St.LLCShare(); share < 0.5 {
		t.Fatalf("LLC coalescing share %.3f, want majority", share)
	}
}

func TestUniformStreamCoalescesLittle(t *testing.T) {
	const n = 1 << 22 // footprint 16x the LLC table
	m := New(new(Store), DefaultConfig(8, 64), n)
	r := stats.NewRand(5)
	const updates = 400000
	for i := 0; i < updates; i++ {
		m.Update(uint32(r.Uint64n(n)), 1)
	}
	m.Flush()
	if rate := m.St.CoalesceRate(); rate > 0.2 {
		t.Fatalf("uniform over-capacity stream coalesced %.3f; URND-like inputs should see little benefit", rate)
	}
}

func TestBinRangesRespected(t *testing.T) {
	const n = 10000
	m := New(new(Store), DefaultConfig(8, 32), n)
	r := stats.NewRand(7)
	for i := 0; i < 100000; i++ {
		m.Update(uint32(r.Uint64n(n)), 1)
	}
	m.Flush()
	shift := m.BinShift()
	for id, bin := range m.Bins {
		for _, tp := range bin {
			if int(tp.Key>>shift) != id {
				t.Fatalf("key %d in bin %d", tp.Key, id)
			}
		}
	}
	if m.NumBins() > 32 {
		t.Fatalf("bins = %d, want <= 32", m.NumBins())
	}
}

func TestZeroStats(t *testing.T) {
	var s Stats
	if s.CoalesceRate() != 0 || s.LLCShare() != 0 {
		t.Fatal("zero stats rates should be 0")
	}
}

func TestStringAndCounts(t *testing.T) {
	m := New(new(Store), DefaultConfig(8, 8), 1000)
	m.Update(1, 1)
	m.Flush()
	if m.TotalBinnedTuples() != 1 {
		t.Fatalf("binned = %d", m.TotalBinnedTuples())
	}
	if m.String() == "" {
		t.Fatal("empty description")
	}
}

// TestReusedStoreEqualsNew runs a larger model on a store first and
// leaves it unflushed, so its tables hold valid slots past everything
// the next model uses and its bin headers point at its residue, then
// demands that a model on the reused store starts with no bin's tuples
// and ends with the same Stats and the same bin contents as one on a
// new store.
func TestReusedStoreEqualsNew(t *testing.T) {
	feed := func(m *Model, n uint64, seed uint64, updates int) {
		r := stats.NewRand(seed)
		for i := 0; i < updates; i++ {
			m.Update(uint32(r.Uint64n(n)), uint64(r.Intn(5)))
		}
	}
	st := new(Store)
	feed(New(st, DefaultConfig(8, 256), 1<<16), 1<<16, 1, 200000)
	for _, c := range []struct {
		bins int
		keys uint64
	}{{64, 5000}, {256, 1 << 16}, {16, 300}} {
		fresh, reused := New(new(Store), DefaultConfig(8, c.bins), c.keys), New(st, DefaultConfig(8, c.bins), c.keys)
		for b, bin := range reused.Bins {
			if bin != nil {
				t.Fatalf("%d bins: bin %d on a reused store starts with %d tuples of capacity", c.bins, b, cap(bin))
			}
		}
		feed(fresh, c.keys, 2, 30000)
		feed(reused, c.keys, 2, 30000)
		fresh.Flush()
		reused.Flush()
		if fresh.St != reused.St {
			t.Fatalf("%d bins: stats %+v on a reused store, %+v on a new one", c.bins, reused.St, fresh.St)
		}
		if len(fresh.Bins) != len(reused.Bins) {
			t.Fatalf("%d bins: %d bins on a reused store, %d on a new one", c.bins, len(reused.Bins), len(fresh.Bins))
		}
		for b := range fresh.Bins {
			if len(fresh.Bins[b]) != len(reused.Bins[b]) {
				t.Fatalf("%d bins: bin %d holds %d tuples on a reused store, %d on a new one", c.bins, b, len(reused.Bins[b]), len(fresh.Bins[b]))
			}
			for i, tp := range fresh.Bins[b] {
				if reused.Bins[b][i] != tp {
					t.Fatalf("%d bins: bin %d tuple %d is %+v on a reused store, %+v on a new one", c.bins, b, i, reused.Bins[b][i], tp)
				}
			}
		}
	}
}
