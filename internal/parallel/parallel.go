// Package parallel is the shared host-parallel execution substrate of the
// repository: a bounded worker pool plus deterministic sharded map-reduce
// over index ranges (vertex ranges, hash keys, machine ids). The seed
// searches score their candidates serially and start no shards here.
//
// Every algorithm in this module promises bit-identical results at any
// worker count (the "determinism contract", see doc.go of the root package
// and the Parallel execution section of ROADMAP.md). The primitives here
// make that contract easy to keep:
//
//   - work is split into contiguous shards of [0, n) whose boundaries depend
//     only on (n, parts) — never on scheduling;
//   - shard bodies write to disjoint state (their own index range, or a
//     per-shard partial), so goroutine interleaving is unobservable;
//   - reductions combine per-shard partials in ascending shard order on the
//     calling goroutine, so even non-commutative or floating-point folds are
//     reproducible.
//
// The pool is bounded: at most `workers` goroutines run at once, and shards
// are handed out dynamically so heterogeneous shard costs still balance.
// Worker counts come from Options.Parallelism at the API layer and resolve
// through Workers.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested parallelism level to a concrete worker count:
// 0 (auto) means GOMAXPROCS, anything below 1 clamps to 1 (serial), and
// positive values are taken as-is.
func Workers(requested int) int {
	if requested == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// Range is a half-open shard [Lo, Hi) of an index space.
type Range struct {
	Lo, Hi int
}

// Shards splits [0, n) into at most `parts` contiguous ranges whose sizes
// differ by at most one. The boundaries depend only on (n, parts): the first
// n%parts shards get the extra element. Empty shards are never returned, so
// the result may have fewer than `parts` entries (and is empty for n <= 0).
func Shards(n, parts int) []Range {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, parts)
	size := n / parts
	extra := n % parts
	lo := 0
	for i := range out {
		hi := lo + size
		if i < extra {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// For runs body over the shards of [0, n) on up to `workers` goroutines and
// blocks until all shards complete. body receives its shard index and the
// half-open range [lo, hi); bodies for distinct shards may run concurrently,
// so they must write only to disjoint state. With workers <= 1 (or a single
// shard) everything runs on the calling goroutine.
//
// Shard boundaries are those of Shards(n, defaultShards) — a function of n
// alone, NOT of the worker count, so that shard-ordered folds (MapReduce)
// produce bit-identical results at any parallelism level. Shards
// are handed out dynamically so uneven shard costs balance across the pool.
func For(workers, n int, body func(shard, lo, hi int)) {
	shards := Shards(n, defaultShards)
	RunShards(workers, len(shards), func(s int) {
		body(s, shards[s].Lo, shards[s].Hi)
	})
}

// defaultShards is the fixed shard count used by For and MapReduce. It
// must not depend on the worker count (shard boundaries define fold order,
// and fold order defines the bits of floating-point reductions); it is set
// comfortably above common core counts so dynamic hand-out still load
// balances, while keeping per-shard work large enough that scheduling
// overhead stays negligible.
const defaultShards = 64

// RunShards invokes body(s) for every s in [0, shards) on up to `workers`
// goroutines and blocks until all complete. It is the raw bounded pool
// underneath For/MapReduce, useful when the caller has pre-computed shard
// descriptors (e.g. machine ids, degree-balanced vertex ranges).
func RunShards(workers, shards int, body func(s int)) {
	w := Workers(workers)
	if w > shards {
		w = shards
	}
	if w <= 1 {
		for s := 0; s < shards; s++ {
			body(s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				body(s)
			}
		}()
	}
	wg.Wait()
}

// ForEach runs body(i) for every i in [0, n) on up to `workers` goroutines.
// It is For with an index-grain body; bodies must write only to
// index-disjoint state (typically out[i]).
func ForEach(workers, n int, body func(i int)) {
	For(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// MapReduce evaluates mapShard over the shards of [0, n) in parallel and
// folds the per-shard partials with reduce in ascending shard order on the
// calling goroutine, starting from zero. Because the shard boundaries and
// the fold order are both deterministic, the result is bit-identical at any
// worker count — including for floating-point and other non-associative
// folds, which is what makes this the required reduction primitive for the
// objective evaluations in internal/sparsify and friends.
func MapReduce[T any](workers, n int, zero T, mapShard func(lo, hi int) T, reduce func(acc, part T) T) T {
	shards := Shards(n, defaultShards)
	if len(shards) == 0 {
		return zero
	}
	parts := make([]T, len(shards))
	RunShards(workers, len(shards), func(s int) {
		parts[s] = mapShard(shards[s].Lo, shards[s].Hi)
	})
	acc := zero
	for _, p := range parts {
		acc = reduce(acc, p)
	}
	return acc
}

// MaxInt map-reduces an int max over [0, n) (0 for n <= 0, matching the
// "peak words" accumulators it replaces).
func MaxInt(workers, n int, mapShard func(lo, hi int) int) int {
	return MapReduce(workers, n, 0, mapShard, func(a, b int) int {
		if b > a {
			return b
		}
		return a
	})
}
