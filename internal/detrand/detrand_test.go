package detrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("zero-seeded stream produced duplicates: %d distinct of 100", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared test over 16 buckets; threshold is the 0.999 quantile for
	// 15 degrees of freedom (~37.7). Deterministic seed, so no flakiness.
	r := New(1234)
	const buckets, samples = 16, 160000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Errorf("chi-squared %.2f exceeds 37.7; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(99)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermNotIdentity(t *testing.T) {
	// With n=100 the identity permutation has probability 1/100!; if we see
	// it the generator is broken.
	p := New(11).Perm(100)
	identity := true
	for i, v := range p {
		if v != i {
			identity = false
			break
		}
	}
	if identity {
		t.Error("Perm(100) returned the identity permutation")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(3)
	s := r.Split()
	// The split stream must differ from the parent's continuation.
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split stream collided with parent %d times", same)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// Split returns a new Source whose stream is independent of the receiver's
// future output, derived from the receiver's current state. Use it to hand
// uncorrelated sub-streams to concurrent workers deterministically.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xD1B54A32D192ED03)
}
