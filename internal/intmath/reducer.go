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
// The batched EvalPoly2 loops additionally use a third, Montgomery-form
// regime for odd m in (2^32, 2^63) — every hash-field prime past the small
// boundary, since NextPrime output is odd. Transforming the multiplicative
// coefficient once per call (c̃1 = c1·2^64 mod m) turns each key into a
// single branchless REDC (three multiplies), replacing the wide path's
// longer, branchy Möller–Granlund chain; the per-call transform amortizes
// to nothing over a key block. Mod and EvalPoly stay on the wide path.
//
// Results are exactly (a·b) mod m and (a+b) mod m in every regime — the
// Reducer is a speed change only, which is what lets the seed-search kernel
// built on it keep the repository's bit-identical determinism contract.
//
// The zero value is not usable; construct with NewReducer. A Reducer is
// immutable and safe for concurrent use.
type Reducer struct {
	m      uint64 // modulus
	rec    uint64 // reciprocal (see regimes above)
	d      uint64 // wide path: m << shift, top bit set
	shift  uint   // wide path: leading zeros of m
	small  bool   // m <= 2^32
	medium bool   // odd m in (2^32, 2^63): Montgomery EvalPoly2 path
	minv   uint64 // medium: -m^{-1} mod 2^64
	r2     uint64 // medium: 2^128 mod m
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
	if m&1 == 1 && m>>63 == 0 {
		r.medium = true
		// Newton–Hensel iteration for m^{-1} mod 2^64: inv = m is correct
		// to 3 bits (m·m ≡ 1 mod 8 for odd m), each step doubles the
		// correct-bit count, so five iterations reach 96 > 64 bits.
		inv := m
		for i := 0; i < 5; i++ {
			inv *= 2 - m*inv
		}
		r.minv = -inv
		// 2^128 mod m, via the already-initialized wide path: the
		// Montgomery transform constant (REDC(a·r2) = a·2^64 mod m).
		r64 := r.reduceWide(1, 0) // 2^64 mod m; hi = 1 < m on this path
		hi, lo := bits.Mul64(r64, r64)
		r.r2 = r.reduceWide(hi, lo)
	}
	return r
}

// montMul returns (a·b·2^-64) mod m for a, b < m on the medium path: one
// branchless Montgomery REDC. With b in Montgomery form (b = v·2^64 mod m)
// the result is exactly (a·v) mod m.
func (r Reducer) montMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	mm := lo * r.minv
	h2, l2 := bits.Mul64(mm, r.m)
	// lo + l2 ≡ 0 mod 2^64 by construction of mm; only its carry survives.
	_, carry := bits.Add64(lo, l2, 0)
	t := hi + h2 + carry // < 2m, and 2m < 2^64 on the medium path
	if t >= r.m {
		t -= r.m
	}
	return t
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
// unrolled-Horner batch loop of the pairwise (k = 2) hash families behind
// the matching/MIS selection steps. c0, c1 and all keys must be < m. The
// loop bodies spell the reduction out inline (rather than calling a helper)
// because the per-key arithmetic is below Go's call overhead — math/bits
// intrinsics compile to single instructions either way, but method calls
// would not inline.
func (r Reducer) EvalPoly2(c0, c1 uint64, keys, out []uint64) {
	if r.small {
		r.evalPoly2Small(c0, c1, keys, out)
		return
	}
	if r.medium {
		evalPoly2MediumGo(c0, r.montMul(c1, r.r2), r.m, r.minv, keys, out)
		return
	}
	m, rec := r.m, r.rec
	d, shift := r.d, r.shift
	for i, x := range keys {
		hi, lo := bits.Mul64(c1, x)
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
		v := rem >> shift
		if c0 != 0 && v >= m-c0 {
			v -= m - c0
		} else {
			v += c0
		}
		out[i] = v
	}
}

// evalPoly2MediumGo is the medium-path (odd m in (2^32, 2^63)) loop behind
// EvalPoly2: c1t is the coefficient in Montgomery form (c1·2^64 mod m,
// computed once per call by montMul against r2), so each key costs one
// branchless REDC — Mul64(c1t, x) gives T = c1·x·2^64 mod-free, mm·m folds
// the low word to zero, and (T + mm·m)/2^64 lands in [0, 2m). Both
// corrections reuse the small path's sign-mask trick, valid because
// m < 2^63 here. The value written is exactly (c1·x + c0) mod m — the same
// bits the wide path produces — just without its data-dependent branches
// and long carry chain.
func evalPoly2MediumGo(c0, c1t, m, minv uint64, keys, out []uint64) {
	for i, x := range keys {
		hi, lo := bits.Mul64(c1t, x)
		mm := lo * minv
		h2, l2 := bits.Mul64(mm, m)
		_, carry := bits.Add64(lo, l2, 0)
		t := hi + h2 + carry - m
		v := t + (m & uint64(int64(t)>>63))
		t = v + c0 - m
		out[i] = t + (m & uint64(int64(t)>>63))
	}
}

// evalPoly2SmallGo is the portable small-path (m <= 2^32) loop behind
// EvalPoly2: the scalar reference the assembly path must match bit for bit,
// and the tail/fallback it defers to. Both corrections are branchless:
// whether the Barrett remainder needs its final subtraction and whether the
// coefficient add wraps both depend on the (effectively random) hash value,
// so a conditional branch here mispredicts about half the time per key.
// t = v - m is "negative" iff v < m, and m < 2^63 on this path, so the sign
// bit of t drives a mask that adds m back exactly when the subtraction
// overshot — the same value the branchy form computes.
func evalPoly2SmallGo(c0, c1, m, rec uint64, keys, out []uint64) {
	for i, x := range keys {
		p := c1 * x
		q, _ := bits.Mul64(p, rec)
		t := p - q*m - m
		v := t + (m & uint64(int64(t)>>63))
		t = v + c0 - m
		out[i] = t + (m & uint64(int64(t)>>63))
	}
}

// EvalPoly2x4 evaluates four degree-1 polynomials over one shared key block:
// outS[i] = (c1[S]·keys[i] + c0[S]) mod m for S in 0..3. It is the S-seed
// member of the blocked kernel family (hashfam.Evaluator.EvalSeedsBlocked
// feeds it groups of four candidate seeds per cache-resident key block): the
// four Barrett chains are independent, so on the portable path the inner
// loop keeps four multiplies in flight per key instead of serialising on
// one, and on AVX2 hardware each chain runs the four-key vector loop while
// the block stays cache-hot. Coefficients and keys must be < m; each out
// slice must have at least len(keys) entries. Results are bit-identical to
// four EvalPoly2 calls.
func (r Reducer) EvalPoly2x4(c0, c1 *[4]uint64, keys []uint64, out0, out1, out2, out3 []uint64) {
	if !r.small {
		if r.medium {
			// Montgomery-transform the four coefficients once, then run
			// four independent REDC chains per key: the multiplies of the
			// four seeds interleave instead of serialising on one
			// reduction's latency, exactly like the small path below.
			m, minv := r.m, r.minv
			t10 := r.montMul(c1[0], r.r2)
			t11 := r.montMul(c1[1], r.r2)
			t12 := r.montMul(c1[2], r.r2)
			t13 := r.montMul(c1[3], r.r2)
			c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
			for i, x := range keys {
				hi0, lo0 := bits.Mul64(t10, x)
				hi1, lo1 := bits.Mul64(t11, x)
				hi2, lo2 := bits.Mul64(t12, x)
				hi3, lo3 := bits.Mul64(t13, x)
				h20, l20 := bits.Mul64(lo0*minv, m)
				h21, l21 := bits.Mul64(lo1*minv, m)
				h22, l22 := bits.Mul64(lo2*minv, m)
				h23, l23 := bits.Mul64(lo3*minv, m)
				_, cy0 := bits.Add64(lo0, l20, 0)
				_, cy1 := bits.Add64(lo1, l21, 0)
				_, cy2 := bits.Add64(lo2, l22, 0)
				_, cy3 := bits.Add64(lo3, l23, 0)
				t0 := hi0 + h20 + cy0 - m
				t1 := hi1 + h21 + cy1 - m
				t2 := hi2 + h22 + cy2 - m
				t3 := hi3 + h23 + cy3 - m
				v0 := t0 + (m & uint64(int64(t0)>>63))
				v1 := t1 + (m & uint64(int64(t1)>>63))
				v2 := t2 + (m & uint64(int64(t2)>>63))
				v3 := t3 + (m & uint64(int64(t3)>>63))
				t0 = v0 + c00 - m
				t1 = v1 + c01 - m
				t2 = v2 + c02 - m
				t3 = v3 + c03 - m
				out0[i] = t0 + (m & uint64(int64(t0)>>63))
				out1[i] = t1 + (m & uint64(int64(t1)>>63))
				out2[i] = t2 + (m & uint64(int64(t2)>>63))
				out3[i] = t3 + (m & uint64(int64(t3)>>63))
			}
			return
		}
		r.EvalPoly2(c0[0], c1[0], keys, out0)
		r.EvalPoly2(c0[1], c1[1], keys, out1)
		r.EvalPoly2(c0[2], c1[2], keys, out2)
		r.EvalPoly2(c0[3], c1[3], keys, out3)
		return
	}
	if evalPoly2Accelerated(r.m) {
		r.evalPoly2Small(c0[0], c1[0], keys, out0)
		r.evalPoly2Small(c0[1], c1[1], keys, out1)
		r.evalPoly2Small(c0[2], c1[2], keys, out2)
		r.evalPoly2Small(c0[3], c1[3], keys, out3)
		return
	}
	m, rec := r.m, r.rec
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	for i, x := range keys {
		p0 := c10 * x
		p1 := c11 * x
		p2 := c12 * x
		p3 := c13 * x
		q0, _ := bits.Mul64(p0, rec)
		q1, _ := bits.Mul64(p1, rec)
		q2, _ := bits.Mul64(p2, rec)
		q3, _ := bits.Mul64(p3, rec)
		t0 := p0 - q0*m - m
		t1 := p1 - q1*m - m
		t2 := p2 - q2*m - m
		t3 := p3 - q3*m - m
		v0 := t0 + (m & uint64(int64(t0)>>63))
		v1 := t1 + (m & uint64(int64(t1)>>63))
		v2 := t2 + (m & uint64(int64(t2)>>63))
		v3 := t3 + (m & uint64(int64(t3)>>63))
		t0 = v0 + c00 - m
		t1 = v1 + c01 - m
		t2 = v2 + c02 - m
		t3 = v3 + c03 - m
		out0[i] = t0 + (m & uint64(int64(t0)>>63))
		out1[i] = t1 + (m & uint64(int64(t1)>>63))
		out2[i] = t2 + (m & uint64(int64(t2)>>63))
		out3[i] = t3 + (m & uint64(int64(t3)>>63))
	}
}

// EvalPoly writes out[i] = (c[k-1]·keys[i]^{k-1} + … + c[0]) mod m by
// Horner's rule for arbitrary degree: the batch loop of the KWise
// subsampling families. All coefficients and keys must be < m. k = 2
// callers should use EvalPoly2 (register-held coefficients); k < 2 is the
// caller's trivial case.
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
