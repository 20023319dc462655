package hashfam

import (
	"testing"
	"testing/quick"

	"repro/internal/intmath"
)

func TestNewPicksPrimeField(t *testing.T) {
	for _, min := range []uint64{2, 10, 100, 1 << 20} {
		f := New(min, 2)
		if f.P() < min || !intmath.IsPrime(f.P()) {
			t.Errorf("New(%d): field %d not a prime >= min", min, f.P())
		}
	}
}

func TestEvalMatchesDirectPolynomial(t *testing.T) {
	f := New(101, 3)
	p := f.P()
	seed := []uint64{5, 7, 11}
	for x := uint64(0); x < p; x++ {
		want := (5 + 7*x + 11*x*x) % p
		if got := f.Eval(seed, x); got != want {
			t.Fatalf("Eval(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestEvalPanicsOnBadSeedLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Eval with wrong seed length did not panic")
		}
	}()
	New(17, 2).Eval([]uint64{1, 2, 3}, 0)
}

// TestExactKWiseIndependence verifies, by full enumeration, that for small
// fields the polynomial family is exactly k-wise independent: for any k
// distinct points, the joint distribution of hash values over a uniformly
// random seed is uniform over [p]^k.
func TestExactKWiseIndependence(t *testing.T) {
	for _, tc := range []struct {
		p uint64
		k int
	}{{5, 2}, {7, 2}, {5, 3}} {
		f := Family{p: tc.p, k: tc.k}
		numSeeds, ok := f.NumSeeds()
		if !ok {
			t.Fatalf("family too large for test")
		}
		// Points 0,1,...,k-1 (any distinct points work; independence is
		// invariant under the choice).
		points := make([]uint64, tc.k)
		for i := range points {
			points[i] = uint64(i)
		}
		counts := map[string]int{}
		seed := make([]uint64, tc.k)
		key := make([]byte, tc.k)
		for idx := uint64(0); idx < numSeeds; idx++ {
			f.SeedFromIndex(idx, seed)
			for i, x := range points {
				key[i] = byte(f.Eval(seed, x))
			}
			counts[string(key)]++
		}
		tuples, _ := intmath.SatPow(tc.p, tc.k)
		if len(counts) != int(tuples) {
			t.Fatalf("p=%d k=%d: saw %d distinct tuples, want %d", tc.p, tc.k, len(counts), tuples)
		}
		want := int(numSeeds / tuples)
		for k, c := range counts {
			if c != want {
				t.Fatalf("p=%d k=%d: tuple %x occurs %d times, want %d", tc.p, tc.k, k, c, want)
			}
		}
	}
}

// TestPairwiseIndependenceOfHigherDegree checks the 2-dimensional marginals
// of a k=4 family: any pair of distinct points must be uniformly jointly
// distributed (k-wise independence implies all j-wise for j <= k).
func TestPairwiseIndependenceOfHigherDegree(t *testing.T) {
	f := Family{p: 5, k: 4}
	numSeeds, _ := f.NumSeeds()
	counts := map[[2]uint64]int{}
	seed := make([]uint64, 4)
	for idx := uint64(0); idx < numSeeds; idx++ {
		f.SeedFromIndex(idx, seed)
		counts[[2]uint64{f.Eval(seed, 1), f.Eval(seed, 3)}]++
	}
	want := int(numSeeds / 25)
	for k, c := range counts {
		if c != want {
			t.Fatalf("pair %v occurs %d times, want %d", k, c, want)
		}
	}
}

func TestSeedFromIndexRoundTrip(t *testing.T) {
	f := Family{p: 7, k: 3}
	seen := map[[3]uint64]bool{}
	seed := make([]uint64, 3)
	numSeeds, _ := f.NumSeeds()
	for idx := uint64(0); idx < numSeeds; idx++ {
		f.SeedFromIndex(idx, seed)
		var key [3]uint64
		copy(key[:], seed)
		if seen[key] {
			t.Fatalf("seed %v repeated at index %d", seed, idx)
		}
		seen[key] = true
	}
	if len(seen) != int(numSeeds) {
		t.Fatalf("enumerated %d seeds, want %d", len(seen), numSeeds)
	}
}

func TestEnumVisitsWholeFamilyOnce(t *testing.T) {
	f := New(11, 2)
	e := f.Enumerate()
	numSeeds, _ := f.NumSeeds()
	seen := map[[2]uint64]bool{}
	for e.Next() {
		var key [2]uint64
		copy(key[:], e.Seed())
		if seen[key] {
			t.Fatalf("enumerator repeated seed %v", key)
		}
		seen[key] = true
	}
	if uint64(len(seen)) != numSeeds {
		t.Fatalf("enumerator visited %d seeds, want %d", len(seen), numSeeds)
	}
	if e.Next() {
		t.Error("enumerator yielded a seed after exhaustion")
	}
}

func TestEnumDeterministicAndResettable(t *testing.T) {
	f := New(101, 3)
	a, b := f.Enumerate(), f.Enumerate()
	var first [][3]uint64
	for i := 0; i < 50; i++ {
		if !a.Next() || !b.Next() {
			t.Fatal("enumerator exhausted too early")
		}
		var ka, kb [3]uint64
		copy(ka[:], a.Seed())
		copy(kb[:], b.Seed())
		if ka != kb {
			t.Fatalf("step %d: enumerators disagree: %v vs %v", i, ka, kb)
		}
		first = append(first, ka)
	}
	a.Reset()
	for i := 0; i < 50; i++ {
		if !a.Next() {
			t.Fatal("reset enumerator exhausted early")
		}
		var k [3]uint64
		copy(k[:], a.Seed())
		if k != first[i] {
			t.Fatalf("after Reset, step %d differs", i)
		}
	}
}

func TestEnumPrefixIsGeneric(t *testing.T) {
	// The first few seeds must not all be degenerate (e.g. zero leading
	// coefficient => constant/low-degree polynomial). This is the property
	// the early-exit search depends on.
	f := New(1009, 2)
	e := f.Enumerate()
	degenerate := 0
	for i := 0; i < 20 && e.Next(); i++ {
		if e.Seed()[1] == 0 {
			degenerate++
		}
	}
	if degenerate > 2 {
		t.Errorf("%d of the first 20 seeds are degenerate", degenerate)
	}
}

func TestThreshold(t *testing.T) {
	cases := []struct{ p, num, den, want uint64 }{
		{100, 1, 2, 50},
		{101, 1, 2, 50},
		{97, 1, 3, 32},
		{97, 2, 1, 97}, // probability >= 1 clamps to p
		{1000003, 1, 1000, 1000},
	}
	for _, c := range cases {
		if got := Threshold(c.p, c.num, c.den); got != c.want {
			t.Errorf("Threshold(%d,%d,%d) = %d, want %d", c.p, c.num, c.den, got, c.want)
		}
	}
}

func TestThresholdProbabilityExact(t *testing.T) {
	// For a 1-wise family (uniform single value), the fraction of seeds with
	// value < Threshold(p, num, den) must be exactly floor(p*num/den)/p.
	f := Family{p: 101, k: 1}
	th := Threshold(f.p, 1, 4) // ~1/4
	count := 0
	seed := make([]uint64, 1)
	for idx := uint64(0); idx < f.p; idx++ {
		f.SeedFromIndex(idx, seed)
		if f.Eval(seed, 42) < th {
			count++
		}
	}
	if uint64(count) != th {
		t.Errorf("sampled fraction %d/%d, want %d/%d", count, f.p, th, f.p)
	}
}

func TestSeedBits(t *testing.T) {
	f := New(1<<20, 2)
	if f.SeedBits() < 40 || f.SeedBits() > 44 {
		t.Errorf("SeedBits = %d, want ~2*20", f.SeedBits())
	}
}

func TestNumSeedsOverflow(t *testing.T) {
	f := New(1<<40, 2) // p^2 ~ 2^80 overflows
	if _, ok := f.NumSeeds(); ok {
		t.Error("NumSeeds should report overflow for p~2^40, k=2")
	}
	g := New(1<<16, 2)
	if n, ok := g.NumSeeds(); !ok || n < 1<<32 {
		t.Errorf("NumSeeds = %d,%v for p~2^16 k=2", n, ok)
	}
}

func TestEvalStaysInRangeQuick(t *testing.T) {
	f := New(1<<24, 4)
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(c0, c1, c2, c3, x uint64) bool {
		seed := []uint64{c0 % f.P(), c1 % f.P(), c2 % f.P(), c3 % f.P()}
		return f.Eval(seed, x%f.P()) < f.P()
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkEvalK2(b *testing.B) {
	f := New(1<<30, 2)
	seed := []uint64{123456789, 987654321}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += f.Eval(seed, uint64(i))
	}
	_ = sink
}

func BenchmarkEvalK8(b *testing.B) {
	f := New(1<<30, 8)
	seed := make([]uint64, 8)
	for i := range seed {
		seed[i] = uint64(i)*7919 + 13
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += f.Eval(seed, uint64(i))
	}
	_ = sink
}

// SeedBits returns the seed length in bits, k*ceil(log2 p), matching the
// O(k·log n) seed length of Lemma 6.
func (f Family) SeedBits() int { return f.k * intmath.CeilLog2(f.p) }

// SeedFromIndex writes into dst the seed with the given index in the
// *unscrambled* base-p digit order (digit j = coefficient j), so the
// independence tests can walk a small family arithmetically. It panics if
// the family size overflows uint64.
func (f Family) SeedFromIndex(index uint64, dst []uint64) {
	if _, ok := f.NumSeeds(); !ok {
		panic("hashfam: SeedFromIndex on family larger than uint64")
	}
	if len(dst) != f.k {
		panic("hashfam: bad dst length")
	}
	for j := 0; j < f.k; j++ {
		dst[j] = index % f.p
		index /= f.p
	}
}

// Reset rewinds the enumerator to the beginning of its order.
func (e *Enum) Reset() {
	for j := range e.counter {
		e.counter[j] = 0
	}
	e.started = false
	e.wrapped = false
}
