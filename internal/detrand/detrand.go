// Package detrand provides a small deterministic pseudo-random source used
// exclusively by workload generators and by the *randomized* baseline
// algorithms (Luby's MIS, randomized matching). The deterministic algorithms
// under internal/sparsify, internal/matching and internal/mis never draw from
// this package: their only "random"-looking inputs are seeds enumerated in a
// fixed order from internal/hashfam families.
//
// The generator is SplitMix64 feeding xoshiro256**, the standard pairing for
// reproducible simulation workloads. It is intentionally not crypto-grade.
package detrand

import "math/bits"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given 64-bit seed via SplitMix64, so
// that nearby seeds produce uncorrelated streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := range src.s {
		src.s[i] = next()
	}
	// xoshiro must not start from the all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9E3779B97F4A7C15
	}
	return &src
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's nearly-divisionless bounded sampling with rejection, so the
// distribution is exactly uniform.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("detrand: Intn with n <= 0")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return int(hi)
}

// Uint64n returns a uniform uint64 in [0, bound). It panics if bound == 0.
// Same nearly-divisionless rejection sampling as Intn, for bounds beyond the
// int range — the luby baselines draw z values from the selection kernels'
// hash field [p), where p = 64n² overflows int32 platforms' Intn long before
// it stops fitting a uint64.
func (r *Source) Uint64n(bound uint64) uint64 {
	if bound == 0 {
		panic("detrand: Uint64n with bound == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
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
