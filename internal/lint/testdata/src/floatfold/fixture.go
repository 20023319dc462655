// Fixture for the floatfold analyzer: float accumulation into variables
// captured by a shard body handed to internal/parallel races AND folds
// in shard-completion order; per-shard slots and shard-local
// accumulators are the sanctioned patterns.
package floatfold

import "repro/internal/parallel"

func capturedSum(xs []float64) float64 {
	var sum float64
	parallel.For(4, len(xs), parallel.SerialWork, func(shard, lo, hi int) {
		for _, x := range xs[lo:hi] {
			sum += x // want `float accumulation into captured sum`
		}
	})
	return sum
}

func capturedProduct(xs []float64) float64 {
	prod := 1.0
	parallel.For(4, 8, parallel.SerialWork, func(s, _, _ int) {
		prod *= float64(s) // want `float accumulation into captured prod`
	})
	return prod
}

func selfAssign(xs []float32) float32 {
	var total float32
	parallel.ForEach(4, len(xs), parallel.SerialWork, func(i int) {
		total = total + xs[i] // want `float accumulation into captured total`
	})
	return total
}

func annotated(xs []float64) float64 {
	var sum float64
	parallel.For(1, len(xs), 0, func(shard, lo, hi int) {
		for _, x := range xs[lo:hi] {
			sum += x //det:allow floatfold fixture: single-shard invocation, fold order is trivially fixed
		}
	})
	return sum
}

// clean: per-shard output slots indexed by shard id are the sanctioned
// deterministic fold pattern.
func perShardSlots(xs []float64) []float64 {
	out := make([]float64, 4)
	parallel.For(4, len(xs), parallel.SerialWork, func(shard, lo, hi int) {
		for _, x := range xs[lo:hi] {
			out[shard] += x
		}
	})
	return out
}

// clean: shard-local accumulator declared inside the body, folded by
// MapReduce in ascending shard order.
func shardLocal(xs []float64) float64 {
	return parallel.MapReduce(4, len(xs), parallel.SerialWork, 0.0,
		func(lo, hi int) float64 {
			local := 0.0
			for _, x := range xs[lo:hi] {
				local += x
			}
			return local
		},
		func(acc, part float64) float64 { return acc + part })
}

// clean: integer accumulation is associative and exact; not this
// analyzer's concern (nogoroutine/race detection handle the data race).
func intCapture(xs []int) int {
	n := 0
	parallel.For(1, len(xs), 0, func(shard, lo, hi int) {
		n += hi - lo
	})
	return n
}

// clean: float accumulation in an ordinary closure not handed to
// internal/parallel is sequential.
func sequentialClosure(xs []float64) float64 {
	var sum float64
	add := func(x float64) {
		sum += x
	}
	for _, x := range xs {
		add(x)
	}
	return sum
}
