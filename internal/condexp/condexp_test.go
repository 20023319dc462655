package condexp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hashfam"
	"repro/internal/simcost"
)

// countBelow returns an objective counting how many of the points hash below
// the threshold t — the canonical sub-sampling objective: its family mean is
// exactly len(points) * t / p by 1-wise uniformity.
func countBelow(fam hashfam.Family, points []uint64, t uint64) Objective {
	return func(seed []uint64) int64 {
		var c int64
		for _, x := range points {
			if fam.Eval(seed, x) < t {
				c++
			}
		}
		return c
	}
}

func testPoints(n int, p uint64) []uint64 {
	pts := make([]uint64, n)
	for i := range pts {
		pts[i] = uint64(i*7+3) % p
	}
	return pts
}

func TestSearchAtLeastFindsMeanValueSeed(t *testing.T) {
	fam := hashfam.New(101, 2)
	points := testPoints(40, fam.P())
	th := hashfam.Threshold(fam.P(), 1, 2)
	obj := countBelow(fam, points, th)
	// Family mean = 40 * th / p ≈ 19.8, so some seed reaches >= 19.
	res, err := SearchAtLeast(fam, obj, 19, Options{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("no seed found: %+v", res)
	}
	if got := obj(res.Seed); got != res.Value || got < 19 {
		t.Errorf("reported value %d, re-eval %d", res.Value, got)
	}
}

func TestSearchAtLeastDeterministic(t *testing.T) {
	fam := hashfam.New(211, 2)
	points := testPoints(64, fam.P())
	obj := countBelow(fam, points, hashfam.Threshold(fam.P(), 1, 3))
	run := func() Result {
		res, err := SearchAtLeast(fam, obj, 20, Options{BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Value != b.Value {
		t.Fatalf("values differ: %d %d", a.Value, b.Value)
	}
	for i := range a.Seed {
		if a.Seed[i] != b.Seed[i] {
			t.Fatalf("seeds differ: %v %v", a.Seed, b.Seed)
		}
	}
}

func TestSearchAtLeastUnreachableThresholdReturnsBest(t *testing.T) {
	fam := hashfam.New(17, 2)
	points := testPoints(10, fam.P())
	obj := countBelow(fam, points, hashfam.Threshold(fam.P(), 1, 2))
	res, err := SearchAtLeast(fam, obj, 1<<40, Options{BatchSize: 64, MaxSeeds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("unreachable threshold reported Found")
	}
	if res.SeedsTried != 100 {
		t.Errorf("tried %d seeds, want 100", res.SeedsTried)
	}
	if res.Seed == nil || res.Value < 0 {
		t.Errorf("best-effort result missing: %+v", res)
	}
	// Best over the scanned prefix must be >= any single scanned seed; spot
	// check it is at least the objective of the first enumerated seed.
	e := fam.Enumerate()
	e.Next()
	if first := obj(e.Seed()); res.Value < first {
		t.Errorf("best %d < first seed's %d", res.Value, first)
	}
}

// TestBatchAccountingAgainstModel: the search charges its model one seed
// batch per batch it evaluates, and nothing else, so the model's seed
// counts and rounds are exactly those of the batches in the result.
func TestBatchAccountingAgainstModel(t *testing.T) {
	fam := hashfam.New(1009, 2)
	points := testPoints(100, fam.P())
	obj := countBelow(fam, points, hashfam.Threshold(fam.P(), 1, 2))
	model := simcost.New(1<<12, 1<<13, 0.5) // S = 64
	res, err := SearchAtLeast(fam, obj, 1<<40, Options{BatchSize: model.S(), Model: model, MaxSeeds: 300, Label: "test"})
	if err != nil {
		t.Fatal(err)
	}
	st := model.Stats()
	if st.SeedsEvaluated != int64(res.SeedsTried) {
		t.Errorf("model saw %d seeds, search tried %d", st.SeedsEvaluated, res.SeedsTried)
	}
	if st.SeedBatches != res.Batches {
		t.Errorf("model batches %d, search batches %d", st.SeedBatches, res.Batches)
	}
	// Batches of S = 64: 300 seeds => 5 batches, the last of 44.
	if res.Batches != 5 {
		t.Errorf("batches = %d, want 5", res.Batches)
	}
	ref := simcost.New(1<<12, 1<<13, 0.5)
	for _, size := range []int{64, 64, 64, 64, 44} {
		ref.ChargeSeedBatch(size, "test")
	}
	if want := ref.Stats().Rounds; st.Rounds != want || len(st.Violations) != 0 {
		t.Errorf("model charged %d rounds with violations %q, want %d rounds and none", st.Rounds, st.Violations, want)
	}
}

// TestBatchSizeRequired: a search has no batch default, so a BatchSize
// below 1 is a programmer error.
func TestBatchSizeRequired(t *testing.T) {
	fam := hashfam.New(17, 2)
	for _, bs := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BatchSize %d did not panic", bs)
				}
			}()
			SearchAtLeast(fam, func([]uint64) int64 { return 1 }, 1, Options{BatchSize: bs})
		}()
	}
}

func TestSearchConditionalReachesMean(t *testing.T) {
	fam := hashfam.New(11, 2) // 121 seeds: exact enumeration is instant
	points := testPoints(9, fam.P())
	obj := countBelow(fam, points, hashfam.Threshold(fam.P(), 1, 2))
	seed, condExp, err := SearchConditional(fam, obj)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := FamilyMean(fam, obj)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(obj(seed))
	if got < mean {
		t.Errorf("conditional-expectations seed value %.2f below family mean %.2f", got, mean)
	}
	if condExp < mean {
		t.Errorf("final conditional expectation %.2f below mean %.2f", condExp, mean)
	}
	if got != condExp {
		t.Errorf("fully-fixed conditional expectation %.2f != actual value %.2f", condExp, got)
	}
}

func TestSearchConditionalMatchesSearchAtLeast(t *testing.T) {
	// Both procedures must achieve at least the family mean; they may pick
	// different seeds but both values must be >= ceil(mean) when integral
	// objectives are involved.
	fam := hashfam.New(13, 3)
	points := testPoints(11, fam.P())
	obj := countBelow(fam, points, hashfam.Threshold(fam.P(), 1, 3))
	mean, err := FamilyMean(fam, obj)
	if err != nil {
		t.Fatal(err)
	}
	condSeed, _, err := SearchConditional(fam, obj)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := SearchAtLeast(fam, obj, int64(mean), Options{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if float64(obj(condSeed)) < mean {
		t.Errorf("conditional seed below mean")
	}
	if !scan.Found || float64(scan.Value) < mean {
		t.Errorf("scan below mean: %+v (mean %.2f)", scan, mean)
	}
}

func TestSearchConditionalRejectsHugeFamily(t *testing.T) {
	fam := hashfam.New(1<<40, 2)
	if _, _, err := SearchConditional(fam, func([]uint64) int64 { return 0 }); err == nil {
		t.Error("huge family accepted")
	}
}

func TestFamilyMeanExactForUniformObjective(t *testing.T) {
	fam := hashfam.New(7, 2)
	points := testPoints(5, fam.P())
	th := hashfam.Threshold(fam.P(), 1, 2) // = 3
	obj := countBelow(fam, points, th)
	mean, err := FamilyMean(fam, obj)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(len(points)) * float64(th) / float64(fam.P())
	if diff := mean - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("family mean %.6f, want %.6f", mean, want)
	}
}

func TestEmptyFamilyImpossible(t *testing.T) {
	// Families always have >= 2 seeds (p >= 2); MaxSeeds=0 defaults, so
	// ErrEmptyFamily only triggers with an exhausted enumerator -- simulate
	// via MaxSeeds smaller than 1 is not possible (defaults). Instead verify
	// the scan handles a tiny family without error.
	fam := hashfam.New(2, 1)
	res, err := SearchAtLeast(fam, func([]uint64) int64 { return 1 }, 1, Options{BatchSize: 64})
	if err != nil || !res.Found {
		t.Errorf("tiny family scan failed: %+v, %v", res, err)
	}
}

func BenchmarkSearchAtLeast(b *testing.B) {
	fam := hashfam.New(1<<20, 2)
	points := testPoints(1000, fam.P())
	obj := countBelow(fam, points, hashfam.Threshold(fam.P(), 1, 2))
	for i := 0; i < b.N; i++ {
		if _, err := SearchAtLeast(fam, obj, 480, Options{BatchSize: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchAtLeastMiss is BenchmarkSearchAtLeast on the miss path:
// the threshold is unreachable, so the scan scores all MaxSeeds candidates,
// one at a time. No production search misses often, so this row is where
// an exhausted search's cost shows.
func BenchmarkSearchAtLeastMiss(b *testing.B) {
	fam := hashfam.New(1<<20, 2)
	points := testPoints(1000, fam.P())
	obj := countBelow(fam, points, hashfam.Threshold(fam.P(), 1, 2))
	for i := 0; i < b.N; i++ {
		if _, err := SearchAtLeast(fam, obj, 1<<40, Options{BatchSize: 64, MaxSeeds: 512}); err != nil {
			b.Fatal(err)
		}
	}
}

// wholeBatchSearch is the reference SearchAtLeast is pinned to: the same
// scan, but every candidate of a charged batch is scored before the first
// qualifying one is looked for.
func wholeBatchSearch(fam hashfam.Family, obj Objective, threshold int64, opts Options) (Result, error) {
	opts.defaults()
	enum := fam.Enumerate()
	best := Result{Value: -1 << 62}
	var batch [][]uint64
	values := make([]int64, opts.BatchSize)
	tried := 0

	flush := func() (done bool) {
		if len(batch) == 0 {
			return false
		}
		if opts.Model != nil {
			opts.Model.ChargeSeedBatch(len(batch), opts.Label)
		}
		best.Batches++
		for i, seed := range batch {
			values[i] = obj(seed)
		}
		for i, seed := range batch {
			v := values[i]
			if v > best.Value {
				best.Value = v
				best.Seed = append(best.Seed[:0], seed...)
			}
			if v >= threshold {
				best.Value = v
				best.Seed = append(best.Seed[:0], seed...)
				best.Found = true
				break
			}
		}
		if opts.OnBatch != nil {
			opts.OnBatch(BatchStat{
				Batch:      best.Batches,
				Seeds:      len(batch),
				SeedsTried: tried,
				BestValue:  best.Value,
				Found:      best.Found,
			})
		}
		if best.Found {
			return true
		}
		batch = batch[:0]
		return false
	}
	canceled := func() bool {
		if opts.Done != nil && opts.Done() {
			best.Canceled = true
			best.SeedsTried = tried - len(batch)
			return true
		}
		return false
	}

	for tried < opts.MaxSeeds && enum.Next() {
		batch = append(batch, append([]uint64(nil), enum.Seed()...))
		tried++
		if len(batch) == opts.BatchSize {
			if canceled() {
				return best, nil
			}
			if flush() {
				best.SeedsTried = tried
				return best, nil
			}
		}
	}
	if canceled() {
		return best, nil
	}
	if flush() {
		best.SeedsTried = tried
		return best, nil
	}
	best.SeedsTried = tried
	if tried == 0 {
		return best, ErrEmptyFamily
	}
	return best, nil
}

// positionThreshold is the threshold of every positionScan search.
const positionThreshold = 100

// seedPositions maps each of the first n seeds of fam's enumeration (a
// pairwise family) to its position in that order.
func seedPositions(fam hashfam.Family, n int) map[[2]uint64]int {
	pos := make(map[[2]uint64]int, n)
	e := fam.Enumerate()
	for i := 0; i < n && e.Next(); i++ {
		pos[[2]uint64{e.Seed()[0], e.Seed()[1]}] = i
	}
	return pos
}

// positionScan is a synthetic objective over enumeration positions, so a
// test can place the first qualifying candidate exactly and count how often
// every position is scored.
type positionScan struct {
	pos   map[[2]uint64]int
	first int // first qualifying position; -1 for none
}

// value scores position i: below the threshold before the first
// qualifying position, a qualifying value there, and further qualifying
// values — larger and smaller — right after it, so a search that picks any
// candidate but the first qualifying one reports a different Value.
func (ps positionScan) value(i int) int64 {
	if ps.first >= 0 {
		switch i - ps.first {
		case 0:
			return positionThreshold
		case 1:
			return positionThreshold + 50
		case 3:
			return positionThreshold + 20
		}
	}
	return int64(i*37) % positionThreshold
}

// objective scores a seed by its position and records each scoring in
// counts (indexed by position), when non-nil, and the position last scored
// in *last, when non-nil.
func (ps positionScan) objective(counts []int, last *int) Objective {
	return func(s []uint64) int64 {
		p := ps.pos[[2]uint64{s[0], s[1]}]
		if counts != nil {
			counts[p]++
		}
		if last != nil {
			*last = p
		}
		return ps.value(p)
	}
}

// searchRun is everything one search reports: its result and error, the
// OnBatch stream, and the cost model's charges.
type searchRun struct {
	res   Result
	err   error
	stats []BatchStat
	model simcost.Stats
}

// runSearch runs search over scan with an S = 64 cost model and OnBatch
// attached; cancelAtPoll > 0 makes Done fire from that poll on.
func runSearch(search func(hashfam.Family, Objective, int64, Options) (Result, error),
	fam hashfam.Family, scan positionScan, batchSize, maxSeeds, cancelAtPoll int) searchRun {
	var run searchRun
	model := simcost.New(1<<12, 1<<13, 0.5)
	opts := Options{
		BatchSize: batchSize,
		MaxSeeds:  maxSeeds,
		Model:     model,
		Label:     "probe",
		OnBatch:   func(bs BatchStat) { run.stats = append(run.stats, bs) },
	}
	if cancelAtPoll > 0 {
		polls := 0
		opts.Done = func() bool {
			polls++
			return polls >= cancelAtPoll
		}
	}
	run.res, run.err = search(fam, scan.objective(nil, nil), positionThreshold, opts)
	run.model = model.Stats()
	return run
}

// TestSearchAtLeastBatchMatchesWholeBatch pins SearchAtLeast's
// stop-at-the-winner batches to the whole-batch reference: with the first
// qualifying candidate at the first, second, middle and last positions of
// a batch, or nowhere, batch sizes from 1 to 64, a MaxSeeds that cuts the
// last batch short, and a Done that cancels at the second or third batch
// boundary, the Result, the OnBatch stream, the charged batches and the
// model's SeedsEvaluated are all those of scoring every batch whole.
func TestSearchAtLeastBatchMatchesWholeBatch(t *testing.T) {
	fam := hashfam.New(101, 2)
	pos := seedPositions(fam, 504)
	for _, maxSeeds := range []int{150, 504} {
		for _, bs := range []int{1, 4, 5, 8, 9, 64} {
			for _, first := range []int{0, 1, 7, 8, 9, maxSeeds - 1, -1} {
				for _, cancelAt := range []int{0, 2, 3} {
					scan := positionScan{pos: pos, first: first}
					want := runSearch(wholeBatchSearch, fam, scan, bs, maxSeeds, cancelAt)
					got := runSearch(SearchAtLeast, fam, scan, bs, maxSeeds, cancelAt)
					name := fmt.Sprintf("max=%d/bs=%d/first=%d/cancel=%d", maxSeeds, bs, first, cancelAt)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: search\n got %+v\nwant %+v", name, got, want)
					}
					if cancelAt == 0 && got.res.Found != (first >= 0) {
						t.Fatalf("%s: Found = %v", name, got.res.Found)
					}
				}
			}
		}
	}
}

// TestSearchAtLeastBatchScoresLazily counts the host's work per candidate:
// each batch is scored once per candidate up to and including its first
// qualifying one, a batch with no qualifying candidate is scored whole, and
// nothing after the deciding batch is scored. Whenever the result is Found,
// the last objective call scored Result.Seed, which the sparsify stage
// apply relies on to read the winner's values.
func TestSearchAtLeastBatchScoresLazily(t *testing.T) {
	fam := hashfam.New(101, 2)
	const maxSeeds = 150
	pos := seedPositions(fam, maxSeeds)
	for _, bs := range []int{1, 4, 5, 8, 9, 64} {
		for _, first := range []int{0, 1, 7, 8, 9, maxSeeds - 1, -1} {
			scan := positionScan{pos: pos, first: first}
			counts := make([]int, maxSeeds)
			last := -1
			res, err := SearchAtLeast(fam, scan.objective(counts, &last), positionThreshold,
				Options{BatchSize: bs, MaxSeeds: maxSeeds})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int, maxSeeds)
			for b := 0; b < res.Batches; b++ {
				for i := b * bs; i < min((b+1)*bs, maxSeeds); i++ {
					want[i] = 1
					if scan.value(i) >= positionThreshold {
						break
					}
				}
			}
			if !reflect.DeepEqual(counts, want) {
				t.Fatalf("bs=%d first=%d: scored per position %v,\nwant %v", bs, first, counts, want)
			}
			if res.Found && last != pos[[2]uint64{res.Seed[0], res.Seed[1]}] {
				t.Fatalf("bs=%d first=%d: the last call scored position %d, not the result's seed %v", bs, first, last, res.Seed)
			}
		}
	}
}

// TestSearchAtLeastDoneStopsAtBatchBoundary: the cancellation hook is polled
// only between batches — a canceled search returns the best of the batches
// that evaluated (Canceled set, no error), and a Done that never fires is
// unobservable.
func TestSearchAtLeastDoneStopsAtBatchBoundary(t *testing.T) {
	fam := hashfam.New(101, 2)
	points := testPoints(40, fam.P())
	obj := countBelow(fam, points, hashfam.Threshold(fam.P(), 1, 2))

	// Done firing from the start: no batch ever evaluates.
	res, err := SearchAtLeast(fam, obj, 1<<40, Options{
		BatchSize: 8,
		Done:      func() bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled || res.Batches != 0 || res.SeedsTried != 0 || res.Seed != nil {
		t.Fatalf("immediate cancel evaluated work: %+v", res)
	}

	// Done firing after the second poll: exactly the batches before it
	// evaluated, and SeedsTried counts only evaluated seeds.
	polls := 0
	res, err = SearchAtLeast(fam, obj, 1<<40, Options{
		BatchSize: 8,
		MaxSeeds:  64,
		Done: func() bool {
			polls++
			return polls > 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatalf("not canceled: %+v", res)
	}
	if res.Batches != 2 || res.SeedsTried != 16 {
		t.Fatalf("expected 2 evaluated batches / 16 seeds before cancel, got %+v", res)
	}
	if res.Seed == nil || res.Value < 0 {
		t.Fatalf("canceled search lost its best-so-far: %+v", res)
	}

	// A Done that never fires changes nothing versus no Done at all.
	ref, err := SearchAtLeast(fam, obj, 19, Options{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchAtLeast(fam, obj, 19, Options{BatchSize: 8, Done: func() bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	if got.Canceled || got.Value != ref.Value || got.SeedsTried != ref.SeedsTried || got.Batches != ref.Batches {
		t.Fatalf("inert Done changed the search: got %+v, want %+v", got, ref)
	}
	for i := range ref.Seed {
		if got.Seed[i] != ref.Seed[i] {
			t.Fatalf("inert Done changed the selected seed")
		}
	}
}

// TestOnBatchStats pins the seed-batch observation seam: one BatchStat per
// charged batch, in enumeration order, with exact cumulative counts, a
// best-value trajectory matching the scan, and the Found flag on the final
// batch exactly when the search succeeded. The stream must not perturb the
// search result.
func TestOnBatchStats(t *testing.T) {
	fam := hashfam.New(101, 2)
	points := testPoints(40, fam.P())
	obj := countBelow(fam, points, hashfam.Threshold(fam.P(), 1, 2))

	var plain Result
	{
		res, err := SearchAtLeast(fam, obj, 19, Options{BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		plain = res
	}

	var stats []BatchStat
	res, err := SearchAtLeast(fam, obj, 19, Options{
		BatchSize: 16,
		OnBatch:   func(bs BatchStat) { stats = append(stats, bs) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != plain.Value || res.Found != plain.Found || res.SeedsTried != plain.SeedsTried {
		t.Fatalf("observation changed the result: %+v vs %+v", res, plain)
	}
	if len(stats) != res.Batches {
		t.Fatalf("%d stats for %d charged batches", len(stats), res.Batches)
	}
	sum := 0
	best := int64(-1 << 62)
	for i, bs := range stats {
		if bs.Batch != i+1 {
			t.Fatalf("stat %d has Batch %d", i, bs.Batch)
		}
		sum += bs.Seeds
		if bs.SeedsTried != sum {
			t.Fatalf("stat %d cumulative %d, want %d", i, bs.SeedsTried, sum)
		}
		if bs.BestValue < best {
			t.Fatalf("best value regressed at batch %d: %d < %d", i+1, bs.BestValue, best)
		}
		best = bs.BestValue
		if bs.Found != (i == len(stats)-1 && res.Found) {
			t.Fatalf("Found misplaced at batch %d", i+1)
		}
	}
	if sum != res.SeedsTried {
		t.Fatalf("stats cover %d seeds, result says %d", sum, res.SeedsTried)
	}
	if last := stats[len(stats)-1]; last.BestValue != res.Value {
		t.Fatalf("final best %d, result value %d", last.BestValue, res.Value)
	}
}

// TestOnBatchModelAgreement cross-checks the stat stream against the cost
// model: charged seed batches and evaluated seeds must match exactly.
func TestOnBatchModelAgreement(t *testing.T) {
	fam := hashfam.New(211, 2)
	points := testPoints(64, fam.P())
	obj := countBelow(fam, points, hashfam.Threshold(fam.P(), 1, 3))
	model := simcost.New(64, 128, 0.5)
	var stats []BatchStat
	res, err := SearchAtLeast(fam, obj, 1<<40, Options{ // unreachable: full scan
		BatchSize: 8,
		MaxSeeds:  64,
		Model:     model,
		OnBatch:   func(bs BatchStat) { stats = append(stats, bs) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("threshold 2^40 cannot be met")
	}
	st := model.Stats()
	if st.SeedBatches != len(stats) || st.SeedBatches != res.Batches {
		t.Fatalf("model charged %d batches, %d stats, result %d", st.SeedBatches, len(stats), res.Batches)
	}
	if int(st.SeedsEvaluated) != res.SeedsTried {
		t.Fatalf("model evaluated %d seeds, result tried %d", st.SeedsEvaluated, res.SeedsTried)
	}
}
