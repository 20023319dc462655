package intmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMulModSmall(t *testing.T) {
	cases := []struct{ a, b, m, want uint64 }{
		{0, 0, 1, 0},
		{3, 4, 5, 2},
		{7, 7, 7, 0},
		{10, 10, 3, 1},
		{1 << 32, 1 << 32, 97, (1 << 32 % 97) * (1 << 32 % 97) % 97},
	}
	for _, c := range cases {
		if got := MulMod(c.a, c.b, c.m); got != c.want {
			t.Errorf("MulMod(%d,%d,%d) = %d, want %d", c.a, c.b, c.m, got, c.want)
		}
	}
}

func TestMulModMatchesBigForSmallInputs(t *testing.T) {
	f := func(a, b uint32, m uint32) bool {
		if m == 0 {
			return true
		}
		want := (uint64(a) % uint64(m)) * (uint64(b) % uint64(m)) % uint64(m)
		return MulMod(uint64(a), uint64(b), uint64(m)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulModLargeOperands(t *testing.T) {
	// (2^63)*(2^63) mod (2^64-59): verify against PowMod which uses MulMod
	// only through already-tested paths, and against a slow double-and-add.
	const m = 18446744073709551557 // largest prime < 2^64
	a := uint64(1) << 63
	slow := func(a, b uint64) uint64 {
		var acc uint64
		for b > 0 {
			if b&1 == 1 {
				acc = AddMod(acc, a, m)
			}
			a = AddMod(a, a, m)
			b >>= 1
		}
		return acc
	}
	if got, want := MulMod(a, a, m), slow(a, a); got != want {
		t.Errorf("MulMod big = %d, want %d", got, want)
	}
}

func TestAddMod(t *testing.T) {
	const m = 1000000007
	f := func(a, b uint64) bool {
		// AddMod's contract requires reduced operands (it performs no
		// defensive reduction of its own).
		a, b = a%m, b%m
		return AddMod(a, b, m) == (a+b)%m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Overflow-prone case: a+b would wrap uint64.
	big := uint64(18446744073709551557)
	if got := AddMod(big-1, big-2, big); got != big-3 {
		t.Errorf("AddMod wrap = %d, want %d", got, big-3)
	}
}

func TestPowMod(t *testing.T) {
	if got := PowMod(2, 10, 1000); got != 24 {
		t.Errorf("2^10 mod 1000 = %d, want 24", got)
	}
	if got := PowMod(5, 0, 7); got != 1 {
		t.Errorf("5^0 mod 7 = %d, want 1", got)
	}
	if got := PowMod(5, 3, 1); got != 0 {
		t.Errorf("x mod 1 must be 0, got %d", got)
	}
	// Fermat: a^(p-1) = 1 mod p for prime p, a not divisible by p.
	const p = 1000003
	for _, a := range []uint64{2, 3, 999999, 12345} {
		if got := PowMod(a, p-1, p); got != 1 {
			t.Errorf("Fermat failed for a=%d: got %d", a, got)
		}
	}
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{}
	sieve := make([]bool, 10000)
	for i := 2; i < len(sieve); i++ {
		if !sieve[i] {
			primes[uint64(i)] = true
			for j := i * i; j < len(sieve); j += i {
				sieve[j] = true
			}
		}
	}
	for n := uint64(0); n < 10000; n++ {
		if got := IsPrime(n); got != primes[n] {
			t.Fatalf("IsPrime(%d) = %v, want %v", n, got, primes[n])
		}
	}
}

func TestIsPrimeKnownLarge(t *testing.T) {
	knownPrime := []uint64{
		1000003, 32416190071, 2147483647, // 2^31-1 Mersenne
		18446744073709551557, // largest 64-bit prime
	}
	knownComposite := []uint64{
		32416190071 * 3, 2147483647 * 2, 1000003 * 1000003,
		3215031751, // strong pseudoprime to bases 2,3,5,7
	}
	for _, p := range knownPrime {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false, want true", p)
		}
	}
	for _, c := range knownComposite {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true, want false", c)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ n, want uint64 }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {14, 17}, {1000000, 1000003},
		{1 << 30, 1073741827},
	}
	for _, c := range cases {
		if got := NextPrime(c.n); got != c.want {
			t.Errorf("NextPrime(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestNextPrimeIsPrimeAndMinimal(t *testing.T) {
	f := func(n uint32) bool {
		p := NextPrime(uint64(n))
		if !IsPrime(p) || p < uint64(n) {
			return false
		}
		for q := uint64(n); q < p; q++ {
			if IsPrime(q) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := CeilLog2(c.n); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCeilPowMatchesFloat(t *testing.T) {
	// CeilPow(x, num, den) should equal ceil(x^(num/den)) up to float
	// rounding; verify on a grid where float64 is exact enough.
	for _, x := range []uint64{2, 10, 100, 1000, 65536} {
		for _, frac := range [][2]int{{1, 2}, {1, 4}, {3, 4}, {1, 8}, {5, 8}, {1, 1}} {
			got := CeilPow(x, frac[0], frac[1])
			f := math.Pow(float64(x), float64(frac[0])/float64(frac[1]))
			want := uint64(math.Ceil(f - 1e-9))
			if got != want {
				t.Errorf("CeilPow(%d,%d/%d) = %d, want %d (float %f)", x, frac[0], frac[1], got, want, f)
			}
		}
	}
}

func TestCeilPowEdge(t *testing.T) {
	if got := CeilPow(0, 1, 2); got != 0 {
		t.Errorf("CeilPow(0) = %d, want 0", got)
	}
	if got := CeilPow(1, 3, 4); got != 1 {
		t.Errorf("CeilPow(1) = %d, want 1", got)
	}
	if got := CeilPow(7, 0, 3); got != 1 {
		t.Errorf("CeilPow(x,0,den) = %d, want 1", got)
	}
}

func TestSatPow(t *testing.T) {
	if v, ov := SatPow(2, 63); ov || v != 1<<63 {
		t.Errorf("SatPow(2,63) = %d,%v", v, ov)
	}
	if _, ov := SatPow(2, 64); !ov {
		t.Error("SatPow(2,64) should overflow")
	}
	if v, ov := SatPow(10, 0); ov || v != 1 {
		t.Errorf("SatPow(10,0) = %d,%v", v, ov)
	}
}

func TestSatMulSatAdd(t *testing.T) {
	half := math.MaxInt/2 + 1
	cases := []struct{ a, b, mul, add int }{
		{0, 0, 0, 0},
		{0, math.MaxInt, 0, math.MaxInt},
		{3, 7, 21, 10},
		{math.MaxInt, 1, math.MaxInt, math.MaxInt},
		{half, 2, math.MaxInt, half + 2},
		{half - 1, 2, math.MaxInt - 1, half + 1},
		{half, half, math.MaxInt, math.MaxInt},
	}
	for _, c := range cases {
		if got := SatMul(c.a, c.b); got != c.mul {
			t.Errorf("SatMul(%d, %d) = %d, want %d", c.a, c.b, got, c.mul)
		}
		if got := SatAdd(c.a, c.b); got != c.add {
			t.Errorf("SatAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.add)
		}
	}
}
