package parallel

import (
	"reflect"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatal("auto workers must be >= 1")
	}
	if got := Workers(-3); got != 1 {
		t.Fatalf("Workers(-3) = %d, want 1", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d, want 7", got)
	}
}

func TestShards(t *testing.T) {
	cases := []struct {
		n, parts int
		want     []Range
	}{
		{0, 4, nil},
		{-1, 4, nil},
		{3, 0, []Range{{0, 3}}},
		{5, 2, []Range{{0, 3}, {3, 5}}},
		{2, 8, []Range{{0, 1}, {1, 2}}},
		{10, 3, []Range{{0, 4}, {4, 7}, {7, 10}}},
	}
	for _, c := range cases {
		got := Shards(c.n, c.parts)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Shards(%d, %d) = %v, want %v", c.n, c.parts, got, c.want)
		}
	}
	// Shards must exactly tile [0, n) with no empty shard, for a grid of
	// (n, parts) combinations.
	for n := 1; n <= 65; n++ {
		for parts := 1; parts <= 9; parts++ {
			shards := Shards(n, parts)
			lo := 0
			for _, r := range shards {
				if r.Lo != lo || r.Hi <= r.Lo {
					t.Fatalf("Shards(%d, %d): bad shard %v at lo=%d", n, parts, r, lo)
				}
				lo = r.Hi
			}
			if lo != n {
				t.Fatalf("Shards(%d, %d): tiles up to %d", n, parts, lo)
			}
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 3, 8, 100} {
		hits := make([]int32, n)
		For(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachWritesDisjointIndices(t *testing.T) {
	const n = 257
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 4, 16} {
		out := make([]int, n)
		ForEach(workers, n, func(i int) { out[i] = i * i })
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("workers=%d: ForEach output mismatch", workers)
		}
	}
}

// TestMapReduceDeterministicFloatFold uses a deliberately non-associative
// floating-point fold and asserts bit-identical results across worker
// counts — the core of the determinism contract.
func TestMapReduceDeterministicFloatFold(t *testing.T) {
	const n = 4096
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1 / float64(i+1)
	}
	ref := MapReduce(1, n, 0.0, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}, func(a, b float64) float64 { return a + b })
	for _, workers := range []int{2, 3, 8, 32} {
		got := MapReduce(workers, n, 0.0, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		}, func(a, b float64) float64 { return a + b })
		if got != ref {
			t.Fatalf("workers=%d: %v != %v (bit-identity violated)", workers, got, ref)
		}
	}
}

func TestMaxInt(t *testing.T) {
	const n = 1234
	max := MaxInt(8, n, func(lo, hi int) int {
		m := 0
		for i := lo; i < hi; i++ {
			if v := (i * 7919) % 1000; v > m {
				m = v
			}
		}
		return m
	})
	want := 0
	for i := 0; i < n; i++ {
		if v := (i * 7919) % 1000; v > want {
			want = v
		}
	}
	if max != want {
		t.Fatalf("MaxInt = %d, want %d", max, want)
	}
	if got := MaxInt(4, 0, func(lo, hi int) int { return 99 }); got != 0 {
		t.Fatalf("MaxInt over empty range = %d, want 0", got)
	}
}

func TestRunShardsBoundsConcurrency(t *testing.T) {
	const shards = 64
	var cur, peak atomic.Int32
	RunShards(3, shards, func(s int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent bodies with workers=3", p)
	}
}
