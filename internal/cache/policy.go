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

// drrip implements Dynamic Re-Reference Interval Prediction [29]:
// 2-bit RRPVs, SRRIP vs BRRIP chosen by set dueling with a saturating
// PSEL counter. The BRRIP "long insertion most of the time" coin flip is
// replaced by a deterministic 1-in-32 counter so simulations reproduce
// exactly.
type drrip struct {
	ways  int
	sets  int
	rrpv  []uint8
	psel  int // saturating [-psMax, psMax]; >=0 means SRRIP wins
	bimod uint32
}

const (
	rrpvMax   = 3   // 2-bit RRPV
	pselMax   = 512 // saturation bound
	brripFreq = 32  // 1-in-32 BRRIP inserts use RRPV=rrpvMax-1
)

func newDRRIP(sets, ways int) *drrip {
	d := &drrip{ways: ways, sets: sets, rrpv: make([]uint8, sets*ways)}
	for i := range d.rrpv {
		d.rrpv[i] = rrpvMax
	}
	return d
}

// Set dueling: a strided subset of sets is dedicated to each policy.
// leader returns +1 for SRRIP leader sets, -1 for BRRIP leaders, 0 for
// follower sets.
func (d *drrip) leader(set int) int {
	switch set & 63 {
	case 0:
		return 1
	case 32:
		return -1
	}
	return 0
}

func (d *drrip) onHit(set, way int) { d.rrpv[set*d.ways+way] = 0 }

func (d *drrip) reset() {
	for i := range d.rrpv {
		d.rrpv[i] = rrpvMax
	}
	d.psel = 0
	d.bimod = 0
}

func (d *drrip) onFill(set, way int) {
	useSRRIP := d.psel >= 0
	switch d.leader(set) {
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
		d.bimod++
		if d.bimod%brripFreq == 0 {
			d.rrpv[i] = rrpvMax - 1
		} else {
			d.rrpv[i] = rrpvMax
		}
	}
}

func (d *drrip) victim(set, minWay int) int {
	base := set * d.ways
	for {
		for w := minWay; w < d.ways; w++ {
			if d.rrpv[base+w] == rrpvMax {
				return w
			}
		}
		for w := minWay; w < d.ways; w++ {
			if d.rrpv[base+w] < rrpvMax {
				d.rrpv[base+w]++
			}
		}
	}
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
