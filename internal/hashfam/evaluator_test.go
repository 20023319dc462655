package hashfam

import (
	"math/rand"
	"testing"
)

// evaluatorFamilies covers both reducer regimes (field below and above 2^32)
// and both family shapes the algorithms use (pairwise, 4-wise), plus k = 1
// and a degree large enough to spill the Evaluator's stack coefficients.
var evaluatorFamilies = []struct {
	minField uint64
	k        int
}{
	{2, 1},
	{97, 2},
	{1 << 20, 2},
	{1 << 20, 4},
	{(1 << 32) + 1, 2}, // wide reducer path
	{(1 << 33) + 5, 4},
	{1 << 10, 9}, // k beyond the stack coefficient buffer
}

// TestEvaluatorMatchesEval is the kernel's contract: EvalKeys over a dirty
// output buffer is byte-identical to per-key Family.Eval.
func TestEvaluatorMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range evaluatorFamilies {
		f := New(tc.minField, tc.k)
		ev := NewEvaluator(f)
		if ev.Family() != f {
			t.Fatalf("Family() mismatch")
		}
		seed := make([]uint64, f.SeedLen())
		keys := make([]uint64, 513)
		out := make([]uint64, len(keys))
		for trial := 0; trial < 20; trial++ {
			for i := range seed {
				seed[i] = rng.Uint64() % f.P()
			}
			for i := range keys {
				keys[i] = rng.Uint64() % f.P()
			}
			keys[0], keys[1] = 0, f.P()-1
			for i := range out {
				out[i] = ^uint64(0) // dirty prior contents must not leak
			}
			got := ev.EvalKeys(seed, keys, out)
			if len(got) != len(keys) {
				t.Fatalf("p=%d k=%d: EvalKeys returned %d values, want %d", f.P(), f.K(), len(got), len(keys))
			}
			for i, x := range keys {
				want := f.Eval(seed, x)
				if got[i] != want {
					t.Fatalf("p=%d k=%d: key %d: EvalKeys = %d, Eval = %d", f.P(), f.K(), x, got[i], want)
				}
			}
		}
	}
}

// TestEvaluatorUnreducedSeed pins the seed-reduction semantics: EvalKeys
// reduces coefficients mod p exactly like Eval does, so out-of-range seeds
// (legal for Eval) agree too.
func TestEvaluatorUnreducedSeed(t *testing.T) {
	f := New(1<<20, 4)
	ev := NewEvaluator(f)
	seed := []uint64{^uint64(0), f.P(), f.P() + 1, 3*f.P() + 17}
	keys := []uint64{0, 1, 12345, f.P() - 1}
	out := make([]uint64, len(keys))
	ev.EvalKeys(seed, keys, out)
	for i, x := range keys {
		if want := f.Eval(seed, x); out[i] != want {
			t.Fatalf("key %d: EvalKeys = %d, Eval = %d", x, out[i], want)
		}
	}
}

func TestEvalKeysPanics(t *testing.T) {
	f := New(97, 2)
	ev := NewEvaluator(f)
	for name, fn := range map[string]func(){
		"short seed":   func() { ev.EvalKeys([]uint64{1}, []uint64{0}, make([]uint64, 1)) },
		"short output": func() { ev.EvalKeys([]uint64{1, 2}, []uint64{0, 1}, make([]uint64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzEvalKeysMatchesEval drives random families, seeds and keys through
// both paths; any byte difference between the scalar fallback and the
// batched kernel fails.
func FuzzEvalKeysMatchesEval(f *testing.F) {
	f.Add(uint64(1024), 2, uint64(12345), uint64(99))
	f.Add(uint64(1)<<33, 4, uint64(1)<<40, ^uint64(0))
	f.Add(uint64(2), 1, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, minField uint64, k int, seedBase, keyBase uint64) {
		if k < 1 || k > 12 {
			return
		}
		if minField > 1<<40 {
			minField = 1 << 40
		}
		fam := New(minField, k)
		ev := NewEvaluator(fam)
		seed := make([]uint64, k)
		for i := range seed {
			seed[i] = (seedBase*uint64(2*i+1) + 0x9E3779B9) % fam.P()
		}
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = (keyBase*uint64(i+1) + uint64(i)*seedBase) % fam.P()
		}
		out := make([]uint64, len(keys))
		for i := range out {
			out[i] = keyBase // dirty
		}
		ev.EvalKeys(seed, keys, out)
		for i, x := range keys {
			if want := fam.Eval(seed, x); out[i] != want {
				t.Fatalf("p=%d k=%d key=%d: kernel %d, scalar %d", fam.P(), k, x, out[i], want)
			}
		}
	})
}

// TestEvalSeedsBlockedMatchesEvalKeys is the blocked kernel's contract:
// evaluating the whole seed matrix block-major over dirty output rows is
// byte-identical to S independent seed-major EvalKeys sweeps. Key counts
// straddle the block grain (empty, below, exact multiple, ragged tail) and
// S covers the EvalPoly2x4 groups plus remainders.
func TestEvalSeedsBlockedMatchesEvalKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range evaluatorFamilies {
		f := New(tc.minField, tc.k)
		ev := NewEvaluator(f)
		for _, S := range []int{0, 1, 3, 4, 8, 11} {
			for _, n := range []int{0, 1, 7, 511, 512, 513, 1400} {
				seeds := make([][]uint64, S)
				for s := range seeds {
					seeds[s] = make([]uint64, f.SeedLen())
					for i := range seeds[s] {
						seeds[s][i] = rng.Uint64() // unreduced: Mod'd like EvalKeys
					}
				}
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = rng.Uint64() % f.P()
				}
				if n > 1 {
					keys[0], keys[1] = 0, f.P()-1
				}
				got := make([][]uint64, S)
				want := make([][]uint64, S)
				for s := 0; s < S; s++ {
					got[s] = make([]uint64, n)
					want[s] = make([]uint64, n)
					for i := 0; i < n; i++ {
						got[s][i] = ^uint64(0) // dirty prior contents must not leak
					}
					ev.EvalKeys(seeds[s], keys, want[s])
				}
				ev.EvalSeedsBlocked(seeds, keys, got)
				for s := 0; s < S; s++ {
					for i := 0; i < n; i++ {
						if got[s][i] != want[s][i] {
							t.Fatalf("p=%d k=%d S=%d n=%d: seed %d key %d: blocked = %d, EvalKeys = %d",
								f.P(), f.K(), S, n, s, i, got[s][i], want[s][i])
						}
					}
				}
			}
		}
	}
}

func TestEvalSeedsBlockedPanics(t *testing.T) {
	f := New(97, 2)
	ev := NewEvaluator(f)
	keys := []uint64{0, 1, 2}
	for name, fn := range map[string]func(){
		"short seed": func() {
			ev.EvalSeedsBlocked([][]uint64{{1}}, keys, [][]uint64{make([]uint64, 3)})
		},
		"missing row": func() {
			ev.EvalSeedsBlocked([][]uint64{{1, 2}, {3, 4}}, keys, [][]uint64{make([]uint64, 3)})
		},
		"short row": func() {
			ev.EvalSeedsBlocked([][]uint64{{1, 2}}, keys, [][]uint64{make([]uint64, 2)})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzEvalSeedsBlockedMatchesEvalKeys drives the blocked kernel with
// arbitrary fields (pinned to the reducer's boundary regimes: near 1, near
// 2^32, near 2^63, near 2^64), S in {1, 3, 8}, and ragged key counts that
// leave partial tail blocks; any byte difference from the per-seed kernel
// fails. Buffers start dirty.
func FuzzEvalSeedsBlockedMatchesEvalKeys(f *testing.F) {
	f.Add(uint64(1), 2, 1, uint64(12345), 513)
	f.Add((uint64(1)<<32)-1, 2, 8, uint64(99), 1025)
	f.Add((uint64(1)<<32)+1, 4, 3, uint64(7), 70)
	f.Add((uint64(1)<<63)+29, 2, 8, ^uint64(0), 512)
	f.Add(^uint64(0)-58, 9, 3, uint64(424242), 600)
	f.Fuzz(func(t *testing.T, minField uint64, k, S int, base uint64, n int) {
		if k < 1 || k > 12 {
			return
		}
		switch S {
		case 1, 3, 8:
		default:
			return
		}
		if n < 0 || n > 2048 {
			return
		}
		if minField > ^uint64(0)-58 {
			minField = ^uint64(0) - 58 // 2^64-59 is the largest uint64 prime
		}
		fam := New(minField, k)
		ev := NewEvaluator(fam)
		x := base
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x
		}
		seeds := make([][]uint64, S)
		for s := range seeds {
			seeds[s] = make([]uint64, k)
			for i := range seeds[s] {
				seeds[s][i] = next()
			}
		}
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = next() % fam.P()
		}
		got := make([][]uint64, S)
		want := make([][]uint64, S)
		for s := 0; s < S; s++ {
			got[s] = make([]uint64, n)
			want[s] = make([]uint64, n)
			for i := 0; i < n; i++ {
				got[s][i] = base // dirty
			}
			ev.EvalKeys(seeds[s], keys, want[s])
		}
		ev.EvalSeedsBlocked(seeds, keys, got)
		for s := 0; s < S; s++ {
			for i := 0; i < n; i++ {
				if got[s][i] != want[s][i] {
					t.Fatalf("p=%d k=%d S=%d n=%d: seed %d key %d: blocked %d, per-seed %d",
						fam.P(), k, S, n, s, i, got[s][i], want[s][i])
				}
			}
		}
	})
}

func BenchmarkEvalScalar(b *testing.B) {
	f := New(1<<28, 2)
	seed := []uint64{12345, 67890}
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i) * 65537 % f.P()
	}
	out := make([]uint64, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, x := range keys {
			out[j] = f.Eval(seed, x)
		}
	}
	sink = out[0]
}

func BenchmarkEvalKeysKernel(b *testing.B) {
	f := New(1<<28, 2)
	ev := NewEvaluator(f)
	seed := []uint64{12345, 67890}
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i) * 65537 % f.P()
	}
	out := make([]uint64, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvalKeys(seed, keys, out)
	}
	sink = out[0]
}

// BenchmarkEvalSeedsBlocked is the blocked kernel at eight pairwise seeds
// over a T7-sized key vector. Compare against 8x BenchmarkEvalKeysKernel for
// the seed-major baseline.
func BenchmarkEvalSeedsBlocked(b *testing.B) {
	f := New(1<<28, 2)
	ev := NewEvaluator(f)
	const S = 8
	seeds := make([][]uint64, S)
	for s := range seeds {
		seeds[s] = []uint64{uint64(s)*12345 + 1, uint64(s)*67890 + 3}
	}
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i) * 65537 % f.P()
	}
	out := make([][]uint64, S)
	for s := range out {
		out[s] = make([]uint64, len(keys))
	}
	b.SetBytes(int64(S * len(keys) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvalSeedsBlocked(seeds, keys, out)
	}
	sink = out[0][0]
}

var sink uint64
