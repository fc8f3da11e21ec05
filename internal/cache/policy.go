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

// replacer is the interface for the replacement policies a Cache does
// not call directly (see Cache.plru and Cache.rrip): the ablation-only
// TrueLRU and Random. Implementations keep all state in flat arrays so
// the hot path never allocates. The minWay argument to victim is the
// partition floor: ways below it are reserved and must never be chosen.
type replacer interface {
	onHit(set, way int)
	onFill(set, way int)
	victim(set, minWay int) int
	// reset restores the post-construction state (Cache.Reset support
	// for pooled machine reuse).
	reset()
}

func newReplacer(kind PolicyKind, sets, ways int) replacer {
	switch kind {
	case TrueLRU:
		return newTrueLRU(sets, ways)
	case Random:
		return newRandomRepl(sets, ways)
	default:
		panic("cache: unknown replacement policy")
	}
}

// bitPLRU keeps one MRU bit per line, packed as one mask word per set.
// A touch sets the line's bit; when every bit in the set is set, all
// other bits clear (leaving only the touched way marked). The victim is
// the lowest-indexed usable way with a clear bit.
//
// The mask layout makes touch two ALU ops and one store — the
// branch-light update the fast walk's hit path relies on — and is
// bit-for-bit equivalent to the per-line boolean layout it replaced:
// the saturation check covers all ways of the set (including reserved
// ones, whose stale bits persist exactly as the boolean version's did).
type bitPLRU struct {
	full uint16 // all `ways` bits set
	mru  []uint16
}

// plruMaxWays bounds the mask representation, and so the associativity
// of a Bit-PLRU level (New panics past it).
const plruMaxWays = 16

func newBitPLRU(sets, ways int) *bitPLRU {
	return &bitPLRU{full: uint16(1)<<uint(ways) - 1, mru: make([]uint16, sets)}
}

func (p *bitPLRU) touch(set, way int) {
	p.mru[set] = PLRUTouch(p.mru[set], uint16(1)<<uint(way), p.full)
}

func (p *bitPLRU) reset() {
	for i := range p.mru {
		p.mru[i] = 0
	}
}

// PLRUTouch returns the Bit-PLRU mask m after touching the way whose
// bit is bit, in a set whose every way is set in full. It and
// PLRUVictim are the policy itself, shared with inlining callers that
// update masks through BatchView.
func PLRUTouch(m, bit, full uint16) uint16 {
	m |= bit
	if m == full {
		m = bit
	}
	return m
}

// PLRUFillWay returns the way a fill into a Bit-PLRU set installs in,
// as Cache's fill chooses it: the first invalid way at or above minWay
// in row (the set's packed metadata), else the victim for mask m.
func PLRUFillWay(row []uint64, m, full uint16, minWay int) int {
	for w := minWay; w < len(row); w++ {
		if row[w]&metaValid == 0 {
			return w
		}
	}
	return PLRUVictim(m, full, minWay)
}

// PLRUVictim returns the Bit-PLRU victim of a set with mask m: the
// lowest way >= minWay with a clear MRU bit, else minWay — the same
// scan order as the boolean loop, computed with one trailing-zeros.
func PLRUVictim(m, full uint16, minWay int) int {
	clear := ^m & full &^ (uint16(1)<<uint(minWay) - 1)
	if clear == 0 {
		return minWay
	}
	return bits.TrailingZeros16(clear)
}

// trueLRU keeps a per-line logical timestamp.
type trueLRU struct {
	ways  int
	stamp []uint64
	clock uint64
}

func newTrueLRU(sets, ways int) *trueLRU {
	return &trueLRU{ways: ways, stamp: make([]uint64, sets*ways)}
}

func (p *trueLRU) onHit(set, way int)  { p.clock++; p.stamp[set*p.ways+way] = p.clock }
func (p *trueLRU) onFill(set, way int) { p.clock++; p.stamp[set*p.ways+way] = p.clock }

func (p *trueLRU) reset() {
	for i := range p.stamp {
		p.stamp[i] = 0
	}
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

// RRIP is the replacement state of Dynamic Re-Reference Interval
// Prediction [29]: 2-bit RRPVs, SRRIP vs BRRIP chosen by set dueling
// with a saturating PSEL counter. The BRRIP "long insertion most of the
// time" coin flip is replaced by a deterministic 1-in-32 counter so
// simulations reproduce exactly. A DRRIP Cache calls Hit, Fill and
// Victim itself, and its BatchView hands the same state to inlining
// callers, which must call them where the scalar access would.
type RRIP struct {
	RRPV  []uint8 // per line, indexed set*ways+way
	PSEL  int     // saturating [-pselMax, pselMax]; >= 0 means SRRIP wins
	BRRIP uint32  // BRRIP inserts so far; every brripFreq-th is not distant
	ways  int
}

const (
	rrpvMax   = 3   // 2-bit RRPV
	pselMax   = 512 // saturation bound
	brripFreq = 32  // 1-in-32 BRRIP inserts use RRPV=rrpvMax-1
)

func newRRIP(sets, ways int) *RRIP {
	d := &RRIP{ways: ways, RRPV: make([]uint8, sets*ways)}
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

// Hit records a hit on (set, way): a near re-reference.
func (d *RRIP) Hit(set, way int) { d.RRPV[set*d.ways+way] = 0 }

func (d *RRIP) reset() {
	for i := range d.RRPV {
		d.RRPV[i] = rrpvMax
	}
	d.PSEL = 0
	d.BRRIP = 0
}

// Fill records a fill of (set, way): a leader set's fill charges its
// policy a miss in PSEL, and the line is inserted with SRRIP's long or
// BRRIP's mostly distant re-reference prediction.
func (d *RRIP) Fill(set, way int) {
	useSRRIP := d.PSEL >= 0
	switch leader(set) {
	case 1:
		useSRRIP = true
		// A fill in a leader set means its policy missed; punish it.
		if d.PSEL > -pselMax {
			d.PSEL--
		}
	case -1:
		useSRRIP = false
		if d.PSEL < pselMax {
			d.PSEL++
		}
	}
	i := set*d.ways + way
	if useSRRIP {
		d.RRPV[i] = rrpvMax - 1
	} else {
		d.BRRIP++
		if d.BRRIP%brripFreq == 0 {
			d.RRPV[i] = rrpvMax - 1
		} else {
			d.RRPV[i] = rrpvMax
		}
	}
}

// Victim returns the way of set to evict among ways [minWay, ways):
// the first one predicted distant (RRPV 3). If none is, every usable
// way ages by 3 minus the largest RRPV, and the first way that held the
// largest is the victim: in one pass, what aging every usable way by
// one until some way reaches 3 computes (no RRPV saturates before the
// largest does).
func (d *RRIP) Victim(set, minWay int) int {
	base := set * d.ways
	row := d.RRPV[base+minWay : base+d.ways]
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

// FillWay returns the way a fill into a DRRIP set installs in, as
// Cache's fill chooses it: the first invalid way at or above minWay in
// row (the set's packed metadata), else Victim, which ages the set.
func (d *RRIP) FillWay(row []uint64, set, minWay int) int {
	for w := minWay; w < len(row); w++ {
		if row[w]&metaValid == 0 {
			return w
		}
	}
	return d.Victim(set, minWay)
}

// randomRepl picks victims with a deterministic xorshift stream.
type randomRepl struct {
	ways  int
	state uint64
}

// randomSeed is the fixed xorshift seed (deterministic replay).
const randomSeed = 0x2545F4914F6CDD1D

func newRandomRepl(sets, ways int) *randomRepl {
	return &randomRepl{ways: ways, state: randomSeed}
}

func (p *randomRepl) onHit(int, int)  {}
func (p *randomRepl) onFill(int, int) {}

func (p *randomRepl) reset() { p.state = randomSeed }

func (p *randomRepl) victim(set, minWay int) int {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	span := p.ways - minWay
	return minWay + int(p.state%uint64(span))
}
