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
//     only on n — never on the worker count or on scheduling;
//   - shard bodies write to disjoint state (their own index range, or a
//     per-shard partial), so goroutine interleaving is unobservable;
//   - reductions combine per-shard partials in ascending shard order on the
//     calling goroutine, so even non-commutative or floating-point folds are
//     reproducible.
//
// Every call states its work, the caller's estimate of its serial cost in
// one unit for all callers (see SerialWork). A call whose work is below
// SerialWork runs all its shards on the calling goroutine, in ascending
// shard order, at any worker count: on a 2-vCPU VM, starting goroutines
// for the sparsify path's calls (up to ~2^16 units each) cost more than the
// second worker saved. Heavier calls start a bounded pool: at most
// `workers` goroutines run at once, and shards are handed out dynamically
// so heterogeneous shard costs still balance. Worker counts come from
// Options.Parallelism at the API layer and resolve through Workers.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SerialWork is the serial cutoff: a call whose work is below it runs on
// the calling goroutine. Work is counted in one unit for every caller,
// about one CSR word read (0.4–0.9 ns on a 2-vCPU KVM VM); callers whose
// steps cost more weight their counts by a factor stated at the call.
//
// It was calibrated from whole solves, not from a microbenchmark of one
// call: 2^17 puts every call of the sparsify path and of the Section 5
// round loop at the detbench shapes (n + 2m <= 2^16.1) below it, and every
// Section 5 preprocessing call at the inproc-lowdeg shapes above it.
const SerialWork = 1 << 17

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

// Serial reports whether a call of the given work at the requested worker
// count runs on the calling goroutine: its work is below SerialWork, or
// only one worker is allowed. Every entry point decides through it, and so
// does a caller with a serial path of its own (hashfam.Evaluator.EvalKeysW
// hashes a whole key vector in one pass instead of shard by shard).
func Serial(workers, work int) bool {
	return work < SerialWork || Workers(workers) <= 1
}

// defaultShards is the fixed shard count of every entry point. It must not
// depend on the worker count (shard boundaries define fold order, and fold
// order defines the bits of floating-point reductions); it is set
// comfortably above common core counts so dynamic hand-out still load
// balances, while keeping per-shard work large enough that scheduling
// overhead stays negligible.
const defaultShards = 64

// shardCount is the number of shards of [0, n): min(n, defaultShards), and
// 0 for n <= 0, so no shard is empty.
func shardCount(n int) int {
	return max(min(n, defaultShards), 0)
}

// shardRange returns shard s of [0, n) cut into count contiguous ranges
// (1 <= count <= n) whose sizes differ by at most one: the first n%count
// shards get the extra element. It depends on (n, count, s) only.
func shardRange(n, count, s int) (lo, hi int) {
	size, extra := n/count, n%count
	lo = s*size + min(s, extra)
	hi = lo + size
	if s < extra {
		hi++
	}
	return lo, hi
}

// For runs body over the shards of [0, n) and blocks until all shards
// complete. body receives its shard index and the half-open range [lo, hi).
// Below the serial cutoff (Serial) the shards run in ascending order on the
// calling goroutine; otherwise bodies for distinct shards may run
// concurrently on up to `workers` goroutines, so they must write only to
// disjoint state. work is the call's serial cost (see SerialWork).
//
// Shard boundaries are a function of n alone, NOT of the worker count or of
// work, so that shard-ordered folds (MapReduce) produce bit-identical
// results at any parallelism level.
func For(workers, n, work int, body func(shard, lo, hi int)) {
	count := shardCount(n)
	if Serial(workers, work) {
		for s := 0; s < count; s++ {
			lo, hi := shardRange(n, count, s)
			body(s, lo, hi)
		}
		return
	}
	runShards(workers, count, func(s int) {
		lo, hi := shardRange(n, count, s)
		body(s, lo, hi)
	})
}

// runShards invokes body(s) for every s in [0, shards) on up to `workers`
// goroutines and blocks until all complete: the bounded pool underneath the
// entry points above the serial cutoff.
func runShards(workers, shards int, body func(s int)) {
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

// ForEach runs body(i) for every i in [0, n): For with an index-grain body.
// Bodies must write only to index-disjoint state (typically out[i]).
func ForEach(workers, n, work int, body func(i int)) {
	if Serial(workers, work) {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	For(workers, n, work, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// MapReduce evaluates mapShard over the shards of [0, n) and folds the
// per-shard partials with reduce in ascending shard order on the calling
// goroutine, starting from zero; below the serial cutoff each partial is
// folded as soon as it is produced. Because the shard boundaries and the
// fold order are both deterministic, the result is bit-identical at any
// worker count and on both sides of the cutoff — including for
// floating-point and other non-associative folds. work is the call's
// serial cost (see SerialWork).
func MapReduce[T any](workers, n, work int, zero T, mapShard func(lo, hi int) T, reduce func(acc, part T) T) T {
	count := shardCount(n)
	acc := zero
	if Serial(workers, work) {
		for s := 0; s < count; s++ {
			acc = reduce(acc, mapShard(shardRange(n, count, s)))
		}
		return acc
	}
	parts := make([]T, count)
	runShards(workers, count, func(s int) {
		parts[s] = mapShard(shardRange(n, count, s))
	})
	for _, p := range parts {
		acc = reduce(acc, p)
	}
	return acc
}

// MaxInt map-reduces an int max over [0, n) (0 for n <= 0, matching the
// "peak words" accumulators it replaces).
func MaxInt(workers, n, work int, mapShard func(lo, hi int) int) int {
	return MapReduce(workers, n, work, 0, mapShard, maxOf)
}

// maxOf is MaxInt's fold.
func maxOf(a, b int) int { return max(a, b) }
