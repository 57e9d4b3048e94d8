// Package rng provides deterministic random-number streams and the
// probability distributions used by the workload generators and the
// discrete-event simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// figure and table internal/experiments generates (`prefetchbench -list`)
// must regenerate bit-identically from a seed. The package therefore implements its own small, well-known
// generator (SplitMix64 for seeding, xoshiro256** for the stream) instead
// of depending on the unspecified default source in math/rand, and it
// derives independent named substreams from a root seed so that adding a
// new consumer of randomness does not perturb existing ones.
package rng

import "math"

// splitMix64 advances the SplitMix64 state and returns the next value.
// It is used to expand seeds into full generator state (the construction
// recommended by the xoshiro authors).
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic uniform pseudo-random generator
// (xoshiro256**). It is not safe for concurrent use; derive one Source
// per goroutine with NewStream.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	// A xoshiro state of all zeros is invalid (the generator would emit
	// only zeros); SplitMix64 cannot produce four zero outputs in a row,
	// but guard anyway so the invariant is local.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

// NewStream derives an independent substream identified by name. Streams
// with different names, or from sources with different seeds, are
// independent; the same (seed, name) pair always yields the same stream.
func NewStream(seed uint64, name string) *Source {
	h := fnv64a(name)
	return New(seed ^ h)
}

// fnv64a hashes a string with FNV-1a. Used only for stream derivation,
// where speed and stability matter more than cryptographic strength.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next uniformly distributed 64-bit value.
func (r *Source) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection,
	// which avoids the modulo bias of Uint64() % n.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomises the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate using the
// Marsaglia polar method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
