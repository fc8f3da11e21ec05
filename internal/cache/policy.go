package cache

import "math/bits"

// PolicyKind selects a replacement policy for a cache level.
type PolicyKind int

// Replacement policies used by the simulated machine (Table II):
// Bit-PLRU in L1/L2, DRRIP in the LLC. TrueLRU and Random exist for
// ablation experiments and tests.
const (
	BitPLRU PolicyKind = iota
	TrueLRU
	DRRIP
	Random
)

// String returns the policy's display name.
func (p PolicyKind) String() string {
	switch p {
	case BitPLRU:
		return "Bit-PLRU"
	case TrueLRU:
		return "LRU"
	case DRRIP:
		return "DRRIP"
	case Random:
		return "Random"
	}
	return "unknown"
}

// The policies keep all state in flat arrays, so the hot path never
// allocates. The minWay argument to victim is the partition floor: ways
// below it are reserved and must never be chosen. reset restores the
// post-construction state (Cache.Reset support for pooled machine
// reuse).

// bitPLRU keeps one MRU bit per line, packed as one mask word per set.
// A touch sets the line's bit; when every bit in the set is set, all
// other bits clear (leaving only the touched way marked). The victim is
// the lowest-indexed usable way with a clear bit.
//
// The mask layout makes touch two ALU ops and one store, and is
// bit-for-bit equivalent to a per-line boolean layout: the saturation
// check covers all ways of the set (including reserved ones, whose
// stale bits persist).
type bitPLRU struct {
	full uint16 // all `ways` bits set
	mru  []uint16
}

// plruMaxWays bounds the mask representation, and so the associativity
// of a Bit-PLRU level (New panics past it).
const plruMaxWays = 16

func newBitPLRU(sets, ways int) bitPLRU {
	return bitPLRU{full: uint16(1)<<uint(ways) - 1, mru: make([]uint16, sets)}
}

func (p *bitPLRU) touch(set, way int) {
	bit := uint16(1) << uint(way)
	m := p.mru[set] | bit
	if m == p.full {
		m = bit
	}
	p.mru[set] = m
}

func (p *bitPLRU) reset() { clear(p.mru) }

// victim returns the lowest way >= minWay with a clear MRU bit, else
// minWay — the boolean scan order, computed with one trailing-zeros.
func (p *bitPLRU) victim(set, minWay int) int {
	free := ^p.mru[set] & p.full &^ (uint16(1)<<uint(minWay) - 1)
	if free == 0 {
		return minWay
	}
	return bits.TrailingZeros16(free)
}

// trueLRU keeps a per-line logical timestamp; a hit or fill stamps the
// line with the next tick (Cache.onHit).
type trueLRU struct {
	ways  int
	stamp []uint64
	clock uint64
}

func newTrueLRU(sets, ways int) trueLRU {
	return trueLRU{ways: ways, stamp: make([]uint64, sets*ways)}
}

func (p *trueLRU) reset() {
	clear(p.stamp)
	p.clock = 0
}

func (p *trueLRU) victim(set, minWay int) int {
	base := set * p.ways
	best, bestStamp := minWay, p.stamp[base+minWay]
	for w := minWay + 1; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// drrip is Dynamic Re-Reference Interval Prediction [29]: 2-bit RRPVs,
// SRRIP vs BRRIP chosen by set dueling with a saturating PSEL counter.
// The BRRIP "long insertion most of the time" coin flip is replaced by
// a deterministic 1-in-32 counter so simulations reproduce exactly. A
// hit predicts a near re-reference: RRPV 0 (Cache.onHit).
type drrip struct {
	rrpv  []uint8 // per line, indexed set*ways+way
	psel  int     // saturating [-pselMax, pselMax]; >= 0 means SRRIP wins
	brrip uint32  // BRRIP inserts so far; every brripFreq-th is not distant
	ways  int
}

const (
	rrpvMax   = 3   // 2-bit RRPV
	pselMax   = 512 // saturation bound
	brripFreq = 32  // 1-in-32 BRRIP inserts use RRPV=rrpvMax-1
)

func newDRRIP(sets, ways int) drrip {
	d := drrip{ways: ways, rrpv: make([]uint8, sets*ways)}
	d.reset()
	return d
}

// leader is set dueling's dedication of a strided subset of sets to
// each policy: +1 for SRRIP leader sets, -1 for BRRIP leaders, 0 for
// follower sets.
func leader(set int) int {
	switch set & 63 {
	case 0:
		return 1
	case 32:
		return -1
	}
	return 0
}

func (d *drrip) reset() {
	for i := range d.rrpv {
		d.rrpv[i] = rrpvMax
	}
	d.psel = 0
	d.brrip = 0
}

// fill records a fill of (set, way): a leader set's fill charges its
// policy a miss in PSEL, and the line is inserted with SRRIP's long or
// BRRIP's mostly distant re-reference prediction.
func (d *drrip) fill(set, way int) {
	useSRRIP := d.psel >= 0
	switch leader(set) {
	case 1:
		useSRRIP = true
		// A fill in a leader set means its policy missed; punish it.
		if d.psel > -pselMax {
			d.psel--
		}
	case -1:
		useSRRIP = false
		if d.psel < pselMax {
			d.psel++
		}
	}
	i := set*d.ways + way
	if useSRRIP {
		d.rrpv[i] = rrpvMax - 1
	} else {
		d.brrip++
		if d.brrip%brripFreq == 0 {
			d.rrpv[i] = rrpvMax - 1
		} else {
			d.rrpv[i] = rrpvMax
		}
	}
}

// victim returns the way of set to evict among ways [minWay, ways):
// the first one predicted distant (RRPV 3). If none is, every usable
// way ages by 3 minus the largest RRPV, and the first way that held the
// largest is the victim: in one pass, what aging every usable way by
// one until some way reaches 3 computes (no RRPV saturates before the
// largest does).
func (d *drrip) victim(set, minWay int) int {
	base := set * d.ways
	row := d.rrpv[base+minWay : base+d.ways]
	best := 0
	for w, r := range row {
		if r == rrpvMax {
			return minWay + w
		}
		if r > row[best] {
			best = w
		}
	}
	age := rrpvMax - row[best]
	for w := range row {
		row[w] += age
	}
	return minWay + best
}

// randomRepl picks victims with a deterministic xorshift stream.
type randomRepl struct {
	state uint64
}

// randomSeed is the fixed xorshift seed (deterministic replay).
const randomSeed = 0x2545F4914F6CDD1D

func (p *randomRepl) reset() { p.state = randomSeed }

func (p *randomRepl) victim(ways, minWay int) int {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return minWay + int(p.state%uint64(ways-minWay))
}
