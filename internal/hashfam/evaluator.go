package hashfam

import (
	"fmt"

	"repro/internal/intmath"
	"repro/internal/parallel"
)

// Evaluator is the key-major batched evaluation kernel of the seed searches:
// it binds a Family to a precomputed intmath.Reducer for p and evaluates the
// family polynomial over a whole precomputed key vector per candidate seed.
// Compared with calling Family.Eval once per key it (a) replaces every
// per-coefficient 128/64-bit division with Barrett-style reciprocal
// multiplication, (b) reduces the seed's coefficients once per EvalKeys call
// instead of once per key, and (c) unrolls Horner for the ubiquitous
// pairwise (k = 2) family of the matching/MIS selection steps.
//
// EvalKeys(seed, keys, out) is byte-identical to out[i] =
// Family.Eval(seed, keys[i]) — the kernel is a speed change only, so every
// seed search that adopts it stays inside the repository's bit-identical
// determinism contract (the equivalence is fuzz-tested in
// evaluator_test.go).
//
// An Evaluator is immutable after construction and safe for concurrent use.
type Evaluator struct {
	fam Family
	red intmath.Reducer
}

// NewEvaluator returns the evaluation kernel bound to f.
func NewEvaluator(f Family) *Evaluator {
	if f.k < 1 {
		panic("hashfam: NewEvaluator on zero Family")
	}
	return &Evaluator{fam: f, red: intmath.NewReducer(f.p)}
}

// Family returns the bound family.
func (e *Evaluator) Family() Family { return e.fam }

// EvalKeys writes out[i] = h_seed(keys[i]) for every key and returns
// out[:len(keys)]. len(seed) must equal the family's SeedLen, every key must
// be < P (the same contract as Family.Eval), and len(out) must be at least
// len(keys). Output slots beyond len(keys) and any dirty prior contents of
// out are never read, so pooled per-worker buffers can be passed as-is.
//
//det:hotpath
func (e *Evaluator) EvalKeys(seed, keys, out []uint64) []uint64 {
	var cbuf [8]uint64
	c, out := e.prologue(seed, keys, out, &cbuf)
	e.evalReduced(c, keys, out)
	return out
}

// prologue checks the arguments of EvalKeys and EvalKeysW and returns the
// seed's coefficients reduced mod p, once per seed rather than once per key,
// together with out[:len(keys)]. The stack array cbuf covers every k used
// in this repository (pairwise selection, KWise = 4 subsampling); larger
// families fall back to one allocation per call, amortised over the whole
// key vector.
//
//det:hotpath
func (e *Evaluator) prologue(seed, keys, out []uint64, cbuf *[8]uint64) (c, outKeys []uint64) {
	k := e.fam.k
	if len(seed) != k {
		panic(fmt.Sprintf("hashfam: seed length %d, want %d", len(seed), k))
	}
	if len(out) < len(keys) {
		panic("hashfam: EvalKeys output shorter than key vector")
	}
	if k <= len(cbuf) {
		c = cbuf[:k]
	} else {
		c = make([]uint64, k) //det:allow hotalloc fallback for families wider than the stack array, amortised over the key vector
	}
	for i, s := range seed {
		c[i] = e.red.Mod(s)
	}
	return c, out[:len(keys)]
}

// evalReduced evaluates the family polynomial with pre-reduced coefficients
// over a key range. It is the shard body of EvalKeysW — out[i] depends only
// on keys[i] and c, so disjoint subranges can be evaluated concurrently.
//
//det:hotpath
func (e *Evaluator) evalReduced(c, keys, out []uint64) {
	if len(c) == 2 {
		// Unrolled Horner for the pairwise family, coefficients in registers.
		e.red.EvalPoly2(c[0], c[1], keys, out)
		return
	}
	e.red.EvalPoly(c, keys, out)
}

// BlockKeyGrain is the key-block size of EvalSeedsBlocked: 512 keys = 4KB,
// comfortably inside L1 alongside one output row, so every seed after the
// first reads the block from cache instead of re-streaming the key vector
// from memory. Block boundaries derive from len(keys) and this constant
// alone, and each output element depends only on its own key and seed, so
// blocking is unobservable in the results.
const BlockKeyGrain = 512

// EvalSeedsBlocked writes out[s][i] = h_seeds[s](keys[i]) for every seed and
// key: the block-major multi-seed kernel. Where EvalKeys is seed-major (one
// seed re-streams the whole key vector), this walks the key vector once in
// cache-resident blocks of BlockKeyGrain and evaluates every seed over each
// block, one EvalKeys loop per seed, before advancing — the memory traffic
// of one pass, amortised over the batch. No solver calls it; detbench's
// per-layer replay times it.
//
// Results are byte-identical to calling EvalKeys(seeds[s], keys, out[s]) for
// each s in order — fuzz-proven in evaluator_test.go. Every seed must have
// the family's SeedLen, every key must be < P, and each of the first
// len(seeds) rows of out must have at least len(keys) entries. Dirty row
// contents and slots beyond len(keys) are never read.
//
//det:hotpath
func (e *Evaluator) EvalSeedsBlocked(seeds [][]uint64, keys []uint64, out [][]uint64) {
	k := e.fam.k
	S := len(seeds)
	if len(out) < S {
		panic("hashfam: blocked evaluation with fewer output rows than seeds")
	}
	for s, seed := range seeds {
		if len(seed) != k {
			panic(fmt.Sprintf("hashfam: seed length %d, want %d", len(seed), k))
		}
		if len(out[s]) < len(keys) {
			panic("hashfam: blocked evaluation output row shorter than its key span")
		}
	}
	if S == 0 || len(keys) == 0 {
		return
	}
	// Reduce every seed's coefficients once up front (the per-seed analogue
	// of EvalKeys' single reduction). The stack array covers up to 32
	// pairwise or 16 4-wise seeds; larger requests fall back to one
	// allocation amortised over S full key sweeps.
	var cstack [64]uint64
	var cs []uint64
	if S*k <= len(cstack) {
		cs = cstack[:S*k]
	} else {
		cs = make([]uint64, S*k) //det:allow hotalloc fallback for seed batches wider than the stack array, amortised over S key sweeps
	}
	for s, seed := range seeds {
		c := cs[s*k : (s+1)*k]
		for i, v := range seed {
			c[i] = e.red.Mod(v)
		}
	}
	for lo := 0; lo < len(keys); lo += BlockKeyGrain {
		hi := min(lo+BlockKeyGrain, len(keys))
		for s := 0; s < S; s++ {
			e.evalReduced(cs[s*k:(s+1)*k], keys[lo:hi], out[s][lo:hi])
		}
	}
}

// EvalKeysW is EvalKeys with the key vector sharded over up to `workers`
// goroutines of the shared internal/parallel pool (0 = GOMAXPROCS, 1 =
// serial). It exists for the apply filters and final selections that
// evaluate ONE seed over a round's whole key vector, where no seed batch
// is there to saturate the pool. Its work is len(keys)·k units, one per
// coefficient step of a key's Horner evaluation (~1.0 ns on a 2-vCPU VM for
// pairwise keys); below parallel.SerialWork it is one EvalKeys pass on the
// calling goroutine. Output is byte-identical to EvalKeys at any worker
// count: the seed's coefficients are reduced once and shared read-only, and
// each shard writes only its own out range.
func (e *Evaluator) EvalKeysW(seed, keys, out []uint64, workers int) []uint64 {
	work := len(keys) * e.fam.k
	if parallel.Serial(workers, work) {
		return e.EvalKeys(seed, keys, out)
	}
	var cbuf [8]uint64
	c, out := e.prologue(seed, keys, out, &cbuf)
	parallel.For(workers, len(keys), work, func(_, lo, hi int) {
		e.evalReduced(c, keys[lo:hi], out[lo:hi])
	})
	return out
}
