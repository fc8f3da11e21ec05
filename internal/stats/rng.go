// Package stats provides deterministic pseudo-random number generation
// and small statistical helpers shared by the generators, simulators,
// and experiment harness.
//
// All randomness in the repository flows through Rand so that every
// experiment is reproducible bit-for-bit from its seed.
package stats

// Rand is a splitmix64-seeded xoshiro256** generator. It is deliberately
// not math/rand: we need a stable algorithm whose streams never change
// between Go releases, so figures regenerate identically.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed non-zero state for any seed (including 0).
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly random uint64 in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n called with zero n")
	}
	// Rejection sampling on the high product keeps the result unbiased.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
