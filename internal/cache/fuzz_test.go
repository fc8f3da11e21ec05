package cache

import (
	"fmt"
	"reflect"
	"testing"
)

// sameLevel reports whether two levels hold the same simulated state:
// line metadata, replacement state, reservation and stats. Hints are
// left out; they are the one thing that may differ.
func sameLevel(a, b *Cache) bool {
	x, y := *a, *b
	x.hints, y.hints = nil, nil
	return reflect.DeepEqual(x, y)
}

// levelOp applies one fuzzer-chosen operation to c: op&7 picks it, op>>4
// offsets the address within its line (line is the line number). scan
// puts c on the plain scan: its hints are cleared first, and the
// Hinted/HitAt fast path is replaced by the Access it stands for. It
// returns the operation's results, for the caller to compare.
func levelOp(c *Cache, op, line byte, scan bool) string {
	if scan {
		clear(c.hints)
	}
	addr := uint64(line)<<LineBits | uint64(op>>4)*4
	switch op & 7 {
	case 0, 1:
		hit, victim, dirty := c.Access(addr, op&7 == 1)
		return fmt.Sprint("access ", hit, victim, dirty)
	case 2:
		return fmt.Sprint("writeback ", c.Writeback(addr))
	case 3:
		return fmt.Sprint("prefetch ", c.Prefetch(addr))
	case 4:
		return fmt.Sprint("writeNT ", c.WriteNT(addr))
	case 5:
		write := op&8 != 0
		if !scan {
			if pos, ok := c.Hinted(addr); ok {
				c.HitAt(addr, pos, write)
				return "access true 0 false"
			}
		}
		hit, victim, dirty := c.Access(addr, write)
		return fmt.Sprint("access ", hit, victim, dirty)
	case 6:
		return fmt.Sprint("reserve ", c.ReserveWays(int(line)%c.Ways()))
	default:
		c.Reset()
		return "reset"
	}
}

// FuzzLevel holds a level's verified location hints to a plain scan.
// Its twin has the same geometry and policy, but its hints are cleared
// before every operation: a cleared hint names way 0, which the scan
// from the reservation floor reaches first anyway (or which is
// reserved, hence invalid), so the twin finds every line by scanning.
// After each fuzzer-chosen operation — a demand access, the
// Hinted/HitAt fast path, a writeback install, a prefetch fill, an NT
// store, ReserveWays or Reset — both must report the same results and
// hold the same state. The small geometries give every set 4 or 8
// ways and every hint slot 16 aliasing lines (lines l and l+16 share a
// slot and a set), so hints go stale all the time.
func FuzzLevel(f *testing.F) {
	// testdata/fuzz/FuzzLevel holds the hint-aliasing seeds; this one
	// reserves ways, lowers the reservation and resets between accesses.
	f.Add(byte(2), []byte{6, 2, 0, 1, 0, 17, 0, 33, 6, 0, 0, 1, 7, 0, 0, 17, 5, 17})
	f.Fuzz(func(t *testing.T, geom byte, ops []byte) {
		if len(ops) > 1<<12 {
			t.Skip()
		}
		cfg := Config{Name: "F", SizeB: 1024, Ways: 4, Policy: PolicyKind(geom % 4)} // 4 sets
		if geom&4 != 0 {
			cfg.Ways = 8 // 2 sets
		}
		hinted, plain := New(cfg), New(cfg)
		for i := 0; i+1 < len(ops); i += 2 {
			got := levelOp(hinted, ops[i], ops[i+1], false)
			want := levelOp(plain, ops[i], ops[i+1], true)
			if got != want {
				t.Fatalf("%v op %d (%d, line %d): hinted level %q, plain scan %q", cfg.Policy, i/2, ops[i], ops[i+1], got, want)
			}
			if !sameLevel(hinted, plain) {
				t.Fatalf("%v op %d (%d, line %d): hinted level state diverged from the plain scan's", cfg.Policy, i/2, ops[i], ops[i+1])
			}
		}
	})
}
