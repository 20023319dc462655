package parallel

import (
	"bytes"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// works are one work estimate on each side of the serial cutoff.
var works = []int{SerialWork - 1, SerialWork}

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

// ranges lists the shards of [0, n) cut into count ranges.
func ranges(n, count int) [][2]int {
	var out [][2]int
	for s := 0; s < count; s++ {
		lo, hi := shardRange(n, count, s)
		out = append(out, [2]int{lo, hi})
	}
	return out
}

func TestShards(t *testing.T) {
	cases := []struct {
		n, count int
		want     [][2]int
	}{
		{3, 1, [][2]int{{0, 3}}},
		{5, 2, [][2]int{{0, 3}, {3, 5}}},
		{2, 2, [][2]int{{0, 1}, {1, 2}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
	}
	for _, c := range cases {
		if got := ranges(c.n, c.count); !reflect.DeepEqual(got, c.want) {
			t.Errorf("shards of (%d, %d) = %v, want %v", c.n, c.count, got, c.want)
		}
	}
	for n, want := range map[int]int{-1: 0, 0: 0, 1: 1, 63: 63, 64: 64, 65: 64, 1 << 20: 64} {
		if got := shardCount(n); got != want {
			t.Errorf("shardCount(%d) = %d, want %d", n, got, want)
		}
	}
	// The shards must exactly tile [0, n) with no empty shard and sizes
	// that differ by at most one, for a grid of (n, count) combinations.
	for n := 1; n <= 130; n++ {
		for count := 1; count <= min(n, 9); count++ {
			lo := 0
			for _, r := range ranges(n, count) {
				if r[0] != lo || r[1] <= r[0] || r[1]-r[0] > n/count+1 || r[1]-r[0] < n/count {
					t.Fatalf("shards of (%d, %d): bad shard %v at lo=%d", n, count, r, lo)
				}
				lo = r[1]
			}
			if lo != n {
				t.Fatalf("shards of (%d, %d): tile up to %d", n, count, lo)
			}
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, work := range works {
		for _, workers := range []int{1, 2, 3, 8, 100} {
			hits := make([]int32, n)
			shards := make([]int32, shardCount(n))
			For(workers, n, work, func(shard, lo, hi int) {
				if want, _ := shardRange(n, len(shards), shard); lo != want {
					t.Errorf("work=%d workers=%d: shard %d starts at %d, want %d", work, workers, shard, lo, want)
				}
				atomic.AddInt32(&shards[shard], 1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("work=%d workers=%d: index %d visited %d times", work, workers, i, h)
				}
			}
			for s, h := range shards {
				if h != 1 {
					t.Fatalf("work=%d workers=%d: shard %d ran %d times", work, workers, s, h)
				}
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
	for _, work := range works {
		for _, workers := range []int{1, 4, 16} {
			out := make([]int, n)
			ForEach(workers, n, work, func(i int) { out[i] = i * i })
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("work=%d workers=%d: ForEach output mismatch", work, workers)
			}
		}
	}
}

// TestMapReduceDeterministicFloatFold uses a deliberately non-associative
// floating-point fold and asserts bit-identical results across worker
// counts and on both sides of the serial cutoff — the core of the
// determinism contract — and against the shard-ordered fold written out.
func TestMapReduceDeterministicFloatFold(t *testing.T) {
	const n = 4096
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1 / float64(i+1)
	}
	sum := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	ref := 0.0
	for _, r := range ranges(n, shardCount(n)) {
		ref += sum(r[0], r[1])
	}
	for _, work := range works {
		for _, workers := range []int{1, 2, 3, 8, 32} {
			got := MapReduce(workers, n, work, 0.0, sum, func(a, b float64) float64 { return a + b })
			if got != ref {
				t.Fatalf("work=%d workers=%d: %v != %v (bit-identity violated)", work, workers, got, ref)
			}
		}
	}
}

func TestMaxInt(t *testing.T) {
	const n = 1234
	want := 0
	for i := 0; i < n; i++ {
		if v := (i * 7919) % 1000; v > want {
			want = v
		}
	}
	for _, work := range works {
		max := MaxInt(8, n, work, func(lo, hi int) int {
			m := 0
			for i := lo; i < hi; i++ {
				if v := (i * 7919) % 1000; v > m {
					m = v
				}
			}
			return m
		})
		if max != want {
			t.Fatalf("work=%d: MaxInt = %d, want %d", work, max, want)
		}
		if got := MaxInt(4, 0, work, func(lo, hi int) int { return 99 }); got != 0 {
			t.Fatalf("work=%d: MaxInt over empty range = %d, want 0", work, got)
		}
	}
}

func TestRunShardsBoundsConcurrency(t *testing.T) {
	const shards = 64
	var cur, peak atomic.Int32
	runShards(3, shards, func(s int) {
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

// entries wraps every entry point into one shape: visit sees each shard's
// range, or each index's one-element range for ForEach.
var entries = []struct {
	name string
	run  func(workers, n, work int, visit func(lo, hi int))
}{
	{"For", func(workers, n, work int, visit func(lo, hi int)) {
		For(workers, n, work, func(_, lo, hi int) { visit(lo, hi) })
	}},
	{"ForEach", func(workers, n, work int, visit func(lo, hi int)) {
		ForEach(workers, n, work, func(i int) { visit(i, i+1) })
	}},
	{"MapReduce", func(workers, n, work int, visit func(lo, hi int)) {
		MapReduce(workers, n, work, 0, func(lo, hi int) int { visit(lo, hi); return 0 }, func(a, b int) int { return a + b })
	}},
}

// goid returns the calling goroutine's id, read off its stack header
// ("goroutine 18 [running]:").
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestSerialBelowCutoff: below the cutoff, at any worker count, every
// entry point runs its shards on the calling goroutine, in ascending
// order, one at a time.
func TestSerialBelowCutoff(t *testing.T) {
	const n = 1000
	for _, e := range entries {
		for _, workers := range []int{1, 2, 8} {
			caller := goid()
			var inFlight atomic.Int32
			next := 0
			e.run(workers, n, SerialWork-1, func(lo, hi int) {
				if c := inFlight.Add(1); c != 1 {
					t.Errorf("%s workers=%d: %d shards in flight", e.name, workers, c)
				}
				if id := goid(); id != caller {
					t.Errorf("%s workers=%d: shard [%d, %d) ran on goroutine %s, caller %s", e.name, workers, lo, hi, id, caller)
				}
				if lo != next {
					t.Errorf("%s workers=%d: shard [%d, %d) after %d", e.name, workers, lo, hi, next)
				}
				next = hi
				inFlight.Add(-1)
			})
			if next != n {
				t.Errorf("%s workers=%d: shards ended at %d, want %d", e.name, workers, next, n)
			}
		}
	}
}

// TestParallelAtCutoff: at the cutoff, with two or more workers, every
// entry point has two shards in flight at once. The first shard to arrive
// waits at a rendezvous for a second one; a serial run would leave it
// waiting out the timeout, and the second would arrive only after it.
func TestParallelAtCutoff(t *testing.T) {
	const n = 1000
	for _, e := range entries {
		for _, workers := range []int{2, 8} {
			var arrived atomic.Int32
			var met atomic.Bool
			both := make(chan struct{})
			e.run(workers, n, SerialWork, func(lo, hi int) {
				switch arrived.Add(1) {
				case 1:
					select {
					case <-both:
						met.Store(true)
					case <-time.After(10 * time.Second):
					}
				case 2:
					close(both)
				}
			})
			if !met.Load() {
				t.Errorf("%s workers=%d: no two shards in flight at once", e.name, workers)
			}
		}
	}
}

// sink keeps the allocation test's bodies from being optimised away.
var sink int

// TestSerialPathAllocatesNothing: below the cutoff the entry points
// allocate nothing of their own — no shard descriptors, no partials, no
// wrapper closures. The bodies capture nothing, so they allocate nothing
// either.
func TestSerialPathAllocatesNothing(t *testing.T) {
	const n = 1000
	allocs := testing.AllocsPerRun(20, func() {
		For(8, n, SerialWork-1, func(s, lo, hi int) { sink += hi - lo })
		ForEach(8, n, SerialWork-1, func(i int) { sink += i })
		sink += MapReduce(8, n, SerialWork-1, 0, func(lo, hi int) int { return hi - lo }, func(a, b int) int { return a + b })
		sink += MaxInt(8, n, SerialWork-1, func(lo, hi int) int { return hi })
	})
	if allocs != 0 {
		t.Fatalf("serial path allocated %.1f objects per call set, want 0", allocs)
	}
}
