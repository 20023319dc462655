// Package hashfam implements the k-wise independent hash function families of
// Section 2.3 of the paper (cf. Lemma 6 / Vadhan Corollary 3.34).
//
// A family is the set of degree-(k-1) polynomials over the prime field F_p,
//
//	h_c(x) = c_0 + c_1·x + ... + c_{k-1}·x^{k-1}  (mod p),
//
// which is exactly k-wise independent on domain and range [p]. A "seed" is
// the coefficient vector c. The paper chooses p ≈ n³ so that the z-values it
// assigns to nodes and edges rarely collide; we keep the same construction
// with p the least prime at least the caller's requested size, and the
// algorithms break the rare remaining ties by id (substitution 6 of the repro
// package documentation).
//
// Derandomization needs a fixed deterministic enumeration order of the
// family. Enumerating coefficient vectors in plain counting order would
// front-load degenerate seeds (e.g. all the constant functions come first),
// so Enum visits each digit in an affinely scrambled order while an odometer
// walks the full p^k family. The order is deterministic, has full period, and
// its prefix looks "generic", which is what the early-exit seed searches in
// internal/condexp rely on.
package hashfam

import (
	"fmt"
	"math/bits"

	"repro/internal/intmath"
)

// Family is a k-wise independent polynomial hash family over F_p.
// The zero value is not usable; construct with New.
type Family struct {
	p uint64 // field size (prime)
	k int    // independence (= number of coefficients)
}

// New returns the family of degree-(k-1) polynomials over F_p where p is the
// least prime >= minField. k must be at least 1. The domain and range are
// both [p); callers must ensure their keys are below p.
func New(minField uint64, k int) Family {
	if k < 1 {
		panic("hashfam: k must be >= 1")
	}
	if minField < 2 {
		minField = 2
	}
	return Family{p: intmath.NextPrime(minField), k: k}
}

// P returns the field size (prime), which is both domain and range bound.
func (f Family) P() uint64 { return f.p }

// SeedLen returns the number of field elements in a seed.
func (f Family) SeedLen() int { return f.k }

// NumSeeds returns the family size p^k, with ok=false if it overflows uint64
// (the enumerator still works in that case; only direct indexing is lost).
func (f Family) NumSeeds() (uint64, bool) {
	n, overflow := intmath.SatPow(f.p, f.k)
	return n, !overflow
}

// Eval evaluates the polynomial with the given coefficient seed at point x,
// by Horner's rule. len(seed) must equal SeedLen and x must be < P. Each
// input is reduced exactly once (x hoisted out of the coefficient loop, each
// coefficient as it is consumed); the hot seed searches use the batched
// Evaluator kernel instead, which also removes the per-step division.
func (f Family) Eval(seed []uint64, x uint64) uint64 {
	if len(seed) != f.k {
		panic(fmt.Sprintf("hashfam: seed length %d, want %d", len(seed), f.k))
	}
	if x >= f.p {
		x %= f.p
	}
	acc := seed[f.k-1] % f.p
	for i := f.k - 2; i >= 0; i-- {
		acc = intmath.AddMod(intmath.MulMod(acc, x, f.p), seed[i]%f.p, f.p)
	}
	return acc
}

// Threshold returns floor(p·num/den), the largest field value t such that a
// uniform z in [p) satisfies z < t with probability floor(p·num/den)/p ≈
// num/den. It is how "sample with probability n^-δ" is expressed in field
// terms (paper: h(e) ≤ n^{3-δ} with range n³).
func Threshold(p, num, den uint64) uint64 {
	if den == 0 {
		panic("hashfam: Threshold with den = 0")
	}
	if num >= den {
		return p
	}
	hi, lo := bits.Mul64(p, num)
	if hi >= den {
		panic("hashfam: Threshold overflow")
	}
	q, _ := bits.Div64(hi, lo, den)
	return q
}

// Enum walks the whole family in a deterministic scrambled order with full
// period p^k. It never allocates after construction and is safe to copy
// before first use only.
type Enum struct {
	fam     Family
	counter []uint64 // odometer digits, each in [p)
	mult    []uint64 // per-digit scrambling multiplier (nonzero mod p)
	offset  []uint64 // per-digit scrambling offset
	seed    []uint64 // current scrambled seed
	started bool
	wrapped bool
}

// Enumerate returns a fresh enumerator over the family in its canonical
// scrambled order. Two enumerators over equal families visit seeds in the
// same order.
func (f Family) Enumerate() *Enum {
	e := &Enum{
		fam:     f,
		counter: make([]uint64, f.k),
		mult:    make([]uint64, f.k),
		offset:  make([]uint64, f.k),
		seed:    make([]uint64, f.k),
	}
	// Fixed mixing constants; any nonzero multiplier gives a digit
	// permutation since p is prime. Derived from the golden-ratio constant
	// so different digits use different permutations.
	const phi = 0x9E3779B97F4A7C15
	for j := range e.mult {
		m := (phi*uint64(2*j+1) + 0x7F4A7C15) % f.p
		if m == 0 {
			m = 1
		}
		e.mult[j] = m
		e.offset[j] = (phi >> uint(j%32)) % f.p
	}
	return e
}

// Next advances to the next seed and reports whether it is the first visit
// of a new seed (false once the family has been exhausted). The current seed
// is readable via Seed until the following call to Next.
func (e *Enum) Next() bool {
	if e.wrapped {
		return false
	}
	if !e.started {
		e.started = true
	} else {
		// Odometer increment.
		j := 0
		for ; j < len(e.counter); j++ {
			e.counter[j]++
			if e.counter[j] < e.fam.p {
				break
			}
			e.counter[j] = 0
		}
		if j == len(e.counter) {
			e.wrapped = true
			return false
		}
	}
	for j, c := range e.counter {
		e.seed[j] = intmath.AddMod(intmath.MulMod(c, e.mult[j], e.fam.p), e.offset[j], e.fam.p)
	}
	return true
}

// Seed returns the current seed. The returned slice is reused by Next; copy
// it if it must outlive the next call.
func (e *Enum) Seed() []uint64 { return e.seed }
