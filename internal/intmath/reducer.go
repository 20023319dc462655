package intmath

import "math/bits"

// Reducer performs modular arithmetic for one fixed modulus m using a
// precomputed reciprocal, replacing the per-call 128-by-64-bit division of
// MulMod with a handful of multiplications (Barrett-style reduction; the
// wide path is the 2-by-1 division of Möller & Granlund, "Improved division
// by invariant integers", and the narrow path is the classic single-word
// Barrett step popularised by Lemire's fastmod line of work).
//
// Two regimes, chosen at construction:
//
//   - m <= 2^32: products of reduced operands fit in a uint64, so a modular
//     product is one 64-bit multiply plus one Barrett step with
//     rec = floor(2^64/m).
//     This is the common case — the hash fields of this repository are
//     ~SlotMax·n², below 2^32 for every laptop-scale n.
//   - m > 2^32: the 128-bit product is reduced with the normalized-divisor
//     reciprocal rec = floor((2^128-1)/d) - 2^64, d = m << shift.
//
// Results are exactly (a·b) mod m and (a+b) mod m in both regimes — the
// Reducer is a speed change only, which is what lets the seed-search kernel
// built on it keep the repository's bit-identical determinism contract.
//
// The zero value is not usable; construct with NewReducer. A Reducer is
// immutable and safe for concurrent use.
type Reducer struct {
	m     uint64 // modulus
	rec   uint64 // reciprocal (see regimes above)
	d     uint64 // wide path: m << shift, top bit set
	shift uint   // wide path: leading zeros of m
	small bool   // m <= 2^32
}

// NewReducer returns a Reducer for modulus m > 0.
func NewReducer(m uint64) Reducer {
	if m == 0 {
		panic("intmath: NewReducer with m = 0")
	}
	r := Reducer{m: m}
	if m <= 1<<32 {
		r.small = true
		if m == 1 {
			// floor(2^64/1) overflows; 2^64-1 makes the Barrett step land
			// on a remainder in {0, 1} that the correction folds to 0.
			r.rec = ^uint64(0)
		} else {
			r.rec, _ = bits.Div64(1, 0, m)
		}
		return r
	}
	r.shift = uint(bits.LeadingZeros64(m))
	r.d = m << r.shift
	// rec = floor((2^128-1)/d) - 2^64: the top bit of d is set, so the
	// dividend high word 2^64-1-d is < d and Div64 cannot trap.
	r.rec, _ = bits.Div64(^r.d, ^uint64(0), r.d)
	return r
}

// reduce64 returns n mod m for any n, on the small path (m <= 2^32):
// one high-multiply estimates the quotient within 1, one conditional
// subtraction corrects it.
func (r Reducer) reduce64(n uint64) uint64 {
	q, _ := bits.Mul64(n, r.rec)
	rem := n - q*r.m
	if rem >= r.m {
		rem -= r.m
	}
	return rem
}

// reduceWide returns (hi·2^64 + lo) mod m on the wide path, requiring
// hi < m. This is the remainder half of Möller–Granlund 2-by-1 division
// with the precomputed reciprocal of the normalized divisor.
func (r Reducer) reduceWide(hi, lo uint64) uint64 {
	u1, u0 := hi, lo
	if r.shift > 0 {
		u1 = hi<<r.shift | lo>>(64-r.shift)
		u0 = lo << r.shift
	}
	qh, ql := bits.Mul64(r.rec, u1)
	var carry uint64
	ql, carry = bits.Add64(ql, u0, 0)
	qh, _ = bits.Add64(qh, u1, carry)
	qh++
	rem := u0 - qh*r.d
	if rem > ql {
		rem += r.d
	}
	if rem >= r.d {
		rem -= r.d
	}
	return rem >> r.shift
}

// Mod returns n mod m for any n.
func (r Reducer) Mod(n uint64) uint64 {
	if r.small {
		return r.reduce64(n)
	}
	if n < r.m {
		return n
	}
	return r.reduceWide(0, n)
}

// EvalPoly2 writes out[i] = (c1·keys[i] + c0) mod m for every key: the
// batch loop of the pairwise (k = 2) hash families behind the matching/MIS
// selection steps. c0, c1 and all keys must be < m. For m <= 2^32 it runs
// its own loop with both coefficients in registers; wider moduli go
// through EvalPoly, whose wide loop computes the same values.
//
// Both corrections of the small loop are branchless: whether the Barrett
// remainder needs its final subtraction and whether the coefficient add
// wraps both depend on the (effectively random) hash value, so a
// conditional branch here mispredicts about half the time per key.
// t = v - m is "negative" iff v < m, and m < 2^63 on this path, so the sign
// bit of t drives a mask that adds m back exactly when the subtraction
// overshot: the same value the branchy form computes. The loop spells the
// reduction out inline rather than calling a helper because the per-key
// arithmetic is below Go's call overhead: math/bits intrinsics compile to
// single instructions either way, but method calls would not inline.
func (r Reducer) EvalPoly2(c0, c1 uint64, keys, out []uint64) {
	if !r.small {
		c := [2]uint64{c0, c1}
		r.EvalPoly(c[:], keys, out)
		return
	}
	m, rec := r.m, r.rec
	for i, x := range keys {
		p := c1 * x
		q, _ := bits.Mul64(p, rec)
		t := p - q*m - m
		v := t + (m & uint64(int64(t)>>63))
		t = v + c0 - m
		out[i] = t + (m & uint64(int64(t)>>63))
	}
}

// EvalPoly writes out[i] = (c[k-1]·keys[i]^{k-1} + … + c[0]) mod m by
// Horner's rule for arbitrary degree: the batch loop of the KWise
// subsampling families, and of every family when m > 2^32. All
// coefficients and keys must be < m, and k >= 1; at k = 1 every value is
// c[0]. k = 2 callers should use EvalPoly2, whose small loop holds both
// coefficients in registers.
func (r Reducer) EvalPoly(c []uint64, keys, out []uint64) {
	k := len(c)
	m, rec := r.m, r.rec
	if r.small {
		// Branchless corrections, as in EvalPoly2.
		for i, x := range keys {
			acc := c[k-1]
			for j := k - 2; j >= 0; j-- {
				p := acc * x
				q, _ := bits.Mul64(p, rec)
				t := p - q*m - m
				acc = t + (m & uint64(int64(t)>>63))
				t = acc + c[j] - m
				acc = t + (m & uint64(int64(t)>>63))
			}
			out[i] = acc
		}
		return
	}
	d, shift := r.d, r.shift
	for i, x := range keys {
		acc := c[k-1]
		for j := k - 2; j >= 0; j-- {
			hi, lo := bits.Mul64(acc, x)
			u1, u0 := hi, lo
			if shift > 0 {
				u1 = hi<<shift | lo>>(64-shift)
				u0 = lo << shift
			}
			qh, ql := bits.Mul64(rec, u1)
			var carry uint64
			ql, carry = bits.Add64(ql, u0, 0)
			qh, _ = bits.Add64(qh, u1, carry)
			qh++
			rem := u0 - qh*d
			if rem > ql {
				rem += d
			}
			if rem >= d {
				rem -= d
			}
			acc = rem >> shift
			if cj := c[j]; cj != 0 && acc >= m-cj {
				acc -= m - cj
			} else {
				acc += cj
			}
		}
		out[i] = acc
	}
}
