// Package phi models PHI [43], the state-of-the-art hardware PB
// optimization for COMMUTATIVE updates that the paper compares against
// in §VII-C / Figure 14.
//
// PHI adds reduction units at private caches and an atomic reduction
// unit at the shared LLC: updates buffered on chip coalesce
// hierarchically — an update whose key is already buffered at some
// level merges into it and never travels further. Only coalesced
// residue is written to the in-memory bins. Following the paper's
// methodology ("we model an idealized version of PHI that incurs zero
// overheads for managing PB data"), the model charges no instruction or
// management cost; it answers the memory-traffic and locality questions
// of Figure 14.
//
// Unlike COBRA, PHI keeps software PB's bin organization, so its
// Accumulate phase runs with the same (compromised) bin count as PB-SW
// — the reason Figure 14b shows COBRA winning on L1 misses.
package phi

import (
	"fmt"

	"cobra/internal/core"
)

// Config sizes the coalescing hierarchy.
type Config struct {
	TupleBytes int
	// Per-level coalescing capacities in bytes (defaults: the cache
	// sizes of Table II).
	L1Bytes, L2Bytes, LLCBytes int
	// NumBins is the software-PB bin count PHI inherits.
	NumBins int
	// BatchSize is PHI's selective update batching: every BatchSize
	// updates the private-level (L1/L2) buffers drain into the LLC
	// reduction unit. Private levels therefore coalesce only within a
	// short window, which is why the paper observes ~97% of coalescing
	// happening at the (persistent, much larger) LLC.
	BatchSize int
	// Reduce merges two values for one key (must be commutative).
	Reduce func(a, b uint64) uint64
}

// DefaultConfig mirrors the simulated machine.
func DefaultConfig(tupleBytes, numBins int) Config {
	return Config{
		TupleBytes: tupleBytes,
		L1Bytes:    32 << 10,
		L2Bytes:    256 << 10,
		LLCBytes:   2 << 20,
		NumBins:    numBins,
		BatchSize:  4096,
		Reduce:     func(a, b uint64) uint64 { return a + b },
	}
}

// Stats counts coalescing activity.
type Stats struct {
	Updates      uint64
	CoalescedL1  uint64
	CoalescedL2  uint64
	CoalescedLLC uint64
	MemTuples    uint64 // residue tuples written to in-memory bins
	MemBytes     uint64
}

// slot is one coalescing-table entry (val first: 16 bytes, not 24).
type slot struct {
	val   uint64
	key   uint32
	valid bool
}

// table is one level's reduction buffer: direct-mapped by key, an
// incoming update either merges (key match), fills an empty slot, or
// displaces the incumbent to the next level.
type table struct {
	slots []slot
	mask  uint32
}

// table sizes level l from st's storage: capacityBytes/tupleBytes
// slots rounded down to a power of two for mask indexing, then capped
// at the smallest power of two >= numKeys. The cap is exact, not an
// approximation: every key is below numKeys (New's contract), and
// numKeys <= p' <= p for the capped size p' and configured size p
// whenever the cap binds, so key & (p'-1) == key & (p-1) == key. Each
// key therefore lands in the same slot index, slots >= p' stay empty in
// the uncapped table, and every insert, displacement and
// Flush/drainPrivate scan visits the same valid slots in the same
// order. Only the empty tail — which a small window would otherwise
// clear and scan — goes. The slots are cleared, so a reused store
// starts every table empty.
func (st *Store) table(l, capacityBytes, tupleBytes int, numKeys uint64) *table {
	n := capacityBytes / tupleBytes
	p := 1
	for p*2 <= n && uint64(p) < numKeys {
		p *= 2
	}
	if cap(st.slots[l]) < p {
		st.slots[l] = make([]slot, p)
	}
	slots := st.slots[l][:p]
	clear(slots)
	st.tabs[l] = table{slots: slots, mask: uint32(p - 1)}
	return &st.tabs[l]
}

// insert returns (coalesced, displaced, displacedTuple).
func (t *table) insert(key uint32, val uint64, reduce func(a, b uint64) uint64) (bool, bool, core.Tuple) {
	s := &t.slots[key&t.mask]
	if s.valid && s.key == key {
		s.val = reduce(s.val, val)
		return true, false, core.Tuple{}
	}
	if !s.valid {
		*s = slot{key: key, val: val, valid: true}
		return false, false, core.Tuple{}
	}
	old := core.Tuple{Key: s.key, Val: s.val}
	*s = slot{key: key, val: val, valid: true}
	return false, true, old
}

// Store is the backing storage New takes a model's coalescing tables
// and bin headers from. A store outlives the model built on it: handing
// the store of a model that is out of use to New lets the next model
// reuse its arrays instead of allocating and zeroing megabytes per run.
// Reuse is invisible to the model — New clears every table slot it
// uses and empties every bin header, so nothing a previous model left
// behind is ever read. The store keeps no bin's tuples: each model's
// bins grow from nil, and a caller done with a model's Bins may clear
// them to drop its residue while the store lives on.
type Store struct {
	slots [3][]slot
	tabs  [3]table
	bins  [][]core.Tuple
}

// binHeaders returns numBins nil bins.
func (st *Store) binHeaders(numBins int) [][]core.Tuple {
	if cap(st.bins) < numBins {
		st.bins = make([][]core.Tuple, numBins)
	}
	bins := st.bins[:numBins]
	clear(bins)
	return bins
}

// Model is one core's PHI pipeline.
type Model struct {
	cfg      Config
	lvls     [3]*table
	shift    uint
	sinceBat int
	Bins     [][]core.Tuple
	St       Stats
}

// New builds a PHI model on st, which no other live model may use.
// numKeys sizes the bin ranges and caps each level's table (see
// Store.table); every key must be below numKeys.
func New(st *Store, cfg Config, numKeys uint64) *Model {
	if cfg.TupleBytes <= 0 {
		panic("phi: tuple size must be positive")
	}
	if cfg.Reduce == nil {
		cfg.Reduce = func(a, b uint64) uint64 { return a + b }
	}
	if cfg.NumBins < 1 {
		cfg.NumBins = 1
	}
	m := &Model{cfg: cfg}
	for l, b := range [3]int{cfg.L1Bytes, cfg.L2Bytes, cfg.LLCBytes} {
		m.lvls[l] = st.table(l, b, cfg.TupleBytes, numKeys)
	}
	// Power-of-two bin range covering numKeys with <= NumBins bins.
	shift := uint(0)
	for (numKeys+(1<<shift)-1)>>shift > uint64(cfg.NumBins) {
		shift++
	}
	m.shift = shift
	bins := int((numKeys + (1 << shift) - 1) >> shift)
	m.Bins = st.binHeaders(bins)
	return m
}

// NumBins returns the in-memory bin count (PB-SW's compromise).
func (m *Model) NumBins() int { return len(m.Bins) }

// Update feeds one commutative update through the coalescing hierarchy.
func (m *Model) Update(key uint32, val uint64) {
	m.St.Updates++
	if m.cfg.BatchSize > 0 {
		m.sinceBat++
		if m.sinceBat >= m.cfg.BatchSize {
			m.drainPrivate()
			m.sinceBat = 0
		}
	}
	t := core.Tuple{Key: key, Val: val}
	for l, tab := range m.lvls {
		coalesced, displaced, old := tab.insert(t.Key, t.Val, m.cfg.Reduce)
		if coalesced {
			switch l {
			case 0:
				m.St.CoalescedL1++
			case 1:
				m.St.CoalescedL2++
			default:
				m.St.CoalescedLLC++
			}
			return
		}
		if !displaced {
			return // absorbed into an empty slot
		}
		t = old // displaced incumbent moves down a level
	}
	m.writeToBin(t)
}

// writeToBin spills residue to the in-memory bin (idealized batching:
// exactly tuple bytes of traffic, per the paper's zero-overhead PHI).
func (m *Model) writeToBin(t core.Tuple) {
	m.Bins[t.Key>>m.shift] = append(m.Bins[t.Key>>m.shift], t)
	m.St.MemTuples++
	m.St.MemBytes += uint64(m.cfg.TupleBytes)
}

// Flush drains every level into the in-memory bins (end of Binning).
func (m *Model) Flush() {
	m.drainPrivate()
	for i := range m.lvls[2].slots {
		s := &m.lvls[2].slots[i]
		if s.valid {
			m.writeToBin(core.Tuple{Key: s.key, Val: s.val})
			s.valid = false
		}
	}
}

// drainPrivate moves every buffered tuple in the private levels (L1,
// L2) down the hierarchy, coalescing where possible; residue displaced
// out of the LLC spills to memory.
func (m *Model) drainPrivate() {
	for l := 0; l < 2; l++ {
		for i := range m.lvls[l].slots {
			s := &m.lvls[l].slots[i]
			if !s.valid {
				continue
			}
			t := core.Tuple{Key: s.key, Val: s.val}
			s.valid = false
			cur := t
			settled := false
			for nl := l + 1; nl < 3; nl++ {
				coalesced, displaced, old := m.lvls[nl].insert(cur.Key, cur.Val, m.cfg.Reduce)
				if coalesced {
					if nl == 1 {
						m.St.CoalescedL2++
					} else {
						m.St.CoalescedLLC++
					}
					settled = true
					break
				}
				if !displaced {
					settled = true
					break
				}
				cur = old
			}
			if !settled {
				m.writeToBin(cur)
			}
		}
	}
}

// String describes the model.
func (m *Model) String() string {
	return fmt.Sprintf("PHI: %d bins (shift %d), tables %d/%d/%d slots",
		len(m.Bins), m.shift, len(m.lvls[0].slots), len(m.lvls[1].slots), len(m.lvls[2].slots))
}
