// Package intmath provides deterministic integer arithmetic used across the
// repository: scalar modular arithmetic (MulMod, AddMod, PowMod), the
// batched Reducer behind the hash kernels, primality testing and prime
// search, exact rounded logarithms and powers (CeilLog2, CeilPow),
// saturating arithmetic and a word fill. Nothing but CeilPow, which compares
// in big integers, allocates, so the rest is safe to call from hot loops.
package intmath

import (
	"math"
	"math/big"
	"math/bits"
)

// MulMod returns (a*b) mod m using 128-bit intermediate arithmetic, so it is
// exact for any uint64 inputs with m > 0.
func MulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// AddMod returns (a+b) mod m without overflow for any a, b < m. The
// precondition is the caller's responsibility — no defensive reduction is
// performed, so the function is two compares and an add/sub on the hot path.
func AddMod(a, b, m uint64) uint64 {
	if b != 0 && a >= m-b {
		return a - (m - b)
	}
	return a + b
}

// PowMod returns a^e mod m by binary exponentiation.
func PowMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	result := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, a, m)
		}
		a = MulMod(a, a, m)
		e >>= 1
	}
	return result
}

// millerRabinBases is a deterministic witness set: testing against the
// first twelve primes decides primality exactly for all
// n < 318,665,857,834,031,151,167,461 (Sorenson & Webster), which covers
// the whole uint64 range. IsPrime's trial division uses the same list.
var millerRabinBases = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// IsPrime reports whether n is prime. It is deterministic for all uint64
// values (Miller-Rabin with a proven witness set).
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range millerRabinBases {
		if n%p == 0 {
			return n == p
		}
	}
	// Write n-1 = d * 2^r with d odd.
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
witness:
	for _, a := range millerRabinBases {
		x := PowMod(a%n, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 0; i < r-1; i++ {
			x = MulMod(x, x, n)
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

// NextPrime returns the least prime >= n. It panics if no prime fits in a
// uint64 (n beyond 2^64-59), which cannot happen for the graph sizes this
// repository handles.
func NextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n&1 == 0 {
		n++
	}
	for {
		if IsPrime(n) {
			return n
		}
		if n > n+2 {
			panic("intmath: NextPrime overflow")
		}
		n += 2
	}
}

// CeilLog2 returns ceil(log2(n)) with CeilLog2(0) == 0 and CeilLog2(1) == 0.
func CeilLog2(n uint64) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(n - 1)
}

// CeilPow returns the least integer k >= x^y for non-negative real exponent
// expressed as a rational y = num/den, i.e. ceil(x^(num/den)), computed by
// binary search on k^den >= x^num with exact big-integer comparison. It is
// used to evaluate thresholds such as n^{4δ} without floating-point drift.
// For num >= den the result may exceed uint64; CeilPow panics in that case
// rather than silently truncating.
func CeilPow(x uint64, num, den int) uint64 {
	if den <= 0 {
		panic("intmath: CeilPow requires den > 0")
	}
	if num < 0 {
		panic("intmath: CeilPow requires num >= 0")
	}
	if x == 0 {
		return 0
	}
	if x == 1 || num == 0 {
		return 1
	}
	target := new(big.Int).Exp(big.NewInt(0).SetUint64(x), big.NewInt(int64(num)), nil)
	// Upper bound for the answer: x^ceil(num/den), panicking on overflow.
	hiBound, overflow := SatPow(x, (num+den-1)/den)
	if overflow {
		panic("intmath: CeilPow result exceeds uint64")
	}
	lo, hi := uint64(1), hiBound
	tmp := new(big.Int)
	for lo < hi {
		mid := lo + (hi-lo)/2
		tmp.Exp(big.NewInt(0).SetUint64(mid), big.NewInt(int64(den)), nil)
		if tmp.Cmp(target) >= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// SatPow returns x^e and whether the computation overflowed uint64.
func SatPow(x uint64, e int) (uint64, bool) {
	result := uint64(1)
	base := x
	overflow := false
	for e > 0 {
		if e&1 == 1 {
			hi, lo := bits.Mul64(result, base)
			if hi != 0 {
				overflow = true
			}
			result = lo
		}
		e >>= 1
		if e > 0 {
			hi, lo := bits.Mul64(base, base)
			if hi != 0 && e > 0 {
				overflow = true
			}
			base = lo
		}
	}
	return result, overflow
}

// SatMul returns a·b for non-negative a and b, or math.MaxInt when the
// product overflows int. The work estimates handed to internal/parallel
// multiply sizes whose product can overflow a 32-bit int on dense graphs;
// saturating keeps a heavy call's estimate above the serial cutoff.
func SatMul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// SatAdd returns a+b for non-negative a and b, or math.MaxInt when the sum
// overflows int.
func SatAdd(a, b int) int {
	if b > math.MaxInt-a {
		return math.MaxInt
	}
	return a + b
}
