package intmath

import (
	"math/rand"
	"testing"
)

// reducerModuli is the boundary set the Reducer's two regimes pivot on: the
// small/wide switch at 2^32, the normalization shift hitting 0 at 2^63, and
// the extremes of the uint64 range. Every modulus above 2^32 takes
// EvalPoly2 through its delegation to EvalPoly's wide loop.
var reducerModuli = []uint64{
	1, 2, 3, 5, 7, 1024,
	(1 << 32) - 5, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 32) + 15,
	(1 << 33) + 3,
	(1 << 63) - 259, (1 << 63) - 1, 1 << 63, (1 << 63) + 29,
	^uint64(0) - 58, ^uint64(0), // 2^64-59 is the largest uint64 prime
}

// reducerProducts returns a·b and a+b mod r's modulus m as the Reducer
// computes them: EvalPoly2 and EvalPoly on the one key b, with
// coefficients (0, a) for the product and (a, 1) for the sum (1 mod m when
// m = 1). Each pair of results must agree.
func reducerProducts(t *testing.T, r Reducer, m, a, b uint64) (prod, sum uint64) {
	t.Helper()
	var out [1]uint64
	one := uint64(1) % m
	r.EvalPoly2(0, a, []uint64{b}, out[:])
	prod = out[0]
	r.EvalPoly([]uint64{0, a}, []uint64{b}, out[:])
	if out[0] != prod {
		t.Fatalf("m=%d: %d·%d is %d by EvalPoly2, %d by EvalPoly", m, a, b, prod, out[0])
	}
	r.EvalPoly2(a, one, []uint64{b}, out[:])
	sum = out[0]
	r.EvalPoly([]uint64{a, one}, []uint64{b}, out[:])
	if out[0] != sum {
		t.Fatalf("m=%d: %d+%d is %d by EvalPoly2, %d by EvalPoly", m, a, b, sum, out[0])
	}
	return prod, sum
}

// TestReducerMulModMatchesMulMod checks the Reducer's modular products and
// sums, taken through EvalPoly2 and EvalPoly on one key, against the
// scalar MulMod and AddMod on every boundary modulus: boundary operands and
// random ones.
func TestReducerMulModMatchesMulMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range reducerModuli {
		r := NewReducer(m)
		check := func(a, b uint64) {
			t.Helper()
			prod, sum := reducerProducts(t, r, m, a, b)
			if want := MulMod(a, b, m); prod != want {
				t.Fatalf("m=%d: Reducer product %d·%d = %d, want %d", m, a, b, prod, want)
			}
			if want := AddMod(a, b, m); sum != want {
				t.Fatalf("m=%d: Reducer sum %d+%d = %d, want %d", m, a, b, sum, want)
			}
		}
		// Boundary operands: 0, 1, m-1, m/2 and neighbours.
		bounds := []uint64{0, 1, 2, m / 2, m - 1}
		if m == 1 {
			bounds = []uint64{0}
		}
		for _, a := range bounds {
			for _, b := range bounds {
				if a < m && b < m {
					check(a, b)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			check(rng.Uint64()%m, rng.Uint64()%m)
		}
	}
}

func TestReducerModMatchesPercent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range reducerModuli {
		r := NewReducer(m)
		ns := []uint64{0, 1, m - 1, m, m + 1, 2*m - 1, 2 * m, ^uint64(0), ^uint64(0) - 1}
		for i := 0; i < 2000; i++ {
			ns = append(ns[:9], rng.Uint64())
			for _, n := range ns {
				if got, want := r.Mod(n), n%m; got != want {
					t.Fatalf("m=%d: Mod(%d) = %d, want %d", m, n, got, want)
				}
			}
		}
	}
}

// TestReducerEvalPolyMatchesScalar checks the batched Horner loops against
// the scalar MulMod/AddMod composition on every boundary modulus, for the
// degrees the repository uses (pairwise and 4-wise) plus an odd higher one.
func TestReducerEvalPolyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range reducerModuli {
		r := NewReducer(m)
		keys := make([]uint64, 257)
		for i := range keys {
			keys[i] = rng.Uint64() % m
		}
		keys[0], keys[len(keys)-1] = 0, m-1
		for _, k := range []int{2, 4, 5} {
			c := make([]uint64, k)
			for i := range c {
				c[i] = rng.Uint64() % m
			}
			out := make([]uint64, len(keys))
			for i := range out {
				out[i] = 0xDEADBEEF // dirty: every slot must be rewritten
			}
			if k == 2 {
				r.EvalPoly2(c[0], c[1], keys, out)
			} else {
				r.EvalPoly(c, keys, out)
			}
			for i, x := range keys {
				want := c[k-1]
				for j := k - 2; j >= 0; j-- {
					want = AddMod(MulMod(want, x, m), c[j], m)
				}
				if out[i] != want {
					t.Fatalf("m=%d k=%d: key %d: got %d, want %d", m, k, x, out[i], want)
				}
			}
		}
	}
}

func TestNewReducerZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReducer(0) did not panic")
		}
	}()
	NewReducer(0)
}

// FuzzReducer cross-checks the Reducer's products, sums (both through
// EvalPoly2 and EvalPoly) and Mod against the generic bits.Div64-based
// originals on arbitrary (m, a, b).
func FuzzReducer(f *testing.F) {
	f.Add(uint64(3), uint64(1), uint64(2))
	f.Add(uint64(1)<<32, uint64(1<<31), uint64((1<<32)-1))
	f.Add((uint64(1)<<63)+29, uint64(1)<<62, (uint64(1)<<63)+28)
	f.Add(^uint64(0), ^uint64(0)-1, ^uint64(0)-2)
	f.Fuzz(func(t *testing.T, m, a, b uint64) {
		if m == 0 {
			return
		}
		a, b = a%m, b%m
		r := NewReducer(m)
		prod, sum := reducerProducts(t, r, m, a, b)
		if want := MulMod(a, b, m); prod != want {
			t.Fatalf("m=%d: product %d·%d = %d, want %d", m, a, b, prod, want)
		}
		if want := AddMod(a, b, m); sum != want {
			t.Fatalf("m=%d: sum %d+%d = %d, want %d", m, a, b, sum, want)
		}
		if got, want := r.Mod(a+b), (a+b)%m; a+b >= a && got != want {
			t.Fatalf("m=%d: Mod(%d) = %d, want %d", m, a+b, got, want)
		}
		// EvalPoly2 with c0 = a, c1 = b over keys derived from the inputs:
		// covers whichever of the two regimes (small Barrett, wide
		// Möller–Granlund) m selects.
		keys := []uint64{0, a, b, m - 1, (a ^ b) % m, (a + b) % m}
		out := make([]uint64, len(keys))
		r.EvalPoly2(a, b, keys, out)
		for i, x := range keys {
			if want := AddMod(MulMod(b, x, m), a, m); out[i] != want {
				t.Fatalf("m=%d: EvalPoly2 c0=%d c1=%d key %d = %d, want %d", m, a, b, x, out[i], want)
			}
		}
	})
}

func BenchmarkMulModDiv64(b *testing.B) {
	const m = 1<<63 - 259
	acc := uint64(12345)
	for i := 0; i < b.N; i++ {
		acc = MulMod(acc, acc|1, m)
	}
	sinkU64 = acc
}

var sinkU64 uint64
