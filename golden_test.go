package repro

// Golden-output regression corpus: the exact outputs of the deterministic
// solvers — solution sets AND the per-round seed-search trajectory (seeds
// tried, threshold met, objective value) — are committed under
// testdata/golden/ per workload and strategy, alongside the randomized
// luby baselines under a pinned detrand seed. Every algorithmic change that
// moves any output bit then shows up as a reviewable diff to these files
// instead of silent drift; speed-only changes (the epoch-stamped selections,
// the incident-count lowdeg objective, kernel sharding) must leave them
// untouched, while deliberate stream changes (the baselines' switch to
// selection-field z draws) regenerate exactly the luby fields. Regenerate
// deliberately with:
//
//	go test -run TestGoldenOutputs -update .
//
// The workloads are small on purpose: the corpus is a drift tripwire, not a
// stress test, and the committed files stay reviewable.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/lowdeg"
	"repro/internal/luby"
	"repro/internal/matching"
	"repro/internal/mis"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden expectations from the current outputs")

// goldenSearch records one seed search: enough to pin WHICH seed the
// derandomization settled on (the search is deterministic, so the
// enumeration index plus the objective value identifies it) without
// committing raw seed vectors that churn with the field size.
type goldenSearch struct {
	SeedsTried int   `json:"seeds_tried"`
	SeedFound  bool  `json:"seed_found"`
	Objective  int64 `json:"objective,omitempty"`
}

type goldenFile struct {
	Family   string `json:"family"`
	N        int    `json:"n"`
	AvgDeg   int    `json:"avg_deg"`
	GenSeed  uint64 `json:"gen_seed"`
	Strategy string `json:"strategy"`

	MatchingEdges    [][2]int32     `json:"matching_edges"`
	MatchingSearches []goldenSearch `json:"matching_searches"`
	MISNodes         []int32        `json:"mis_nodes"`
	MISSearches      []goldenSearch `json:"mis_searches"`

	// Randomized baselines under detrand.New(GenSeed), MIS drawn first and
	// the matching continuing the same stream. Strategy-independent (both
	// strategy files of a family carry identical copies); they pin the
	// baselines' z-draw stream, so e.g. moving the draws from full 64-bit
	// words to the selection field [p) is a deliberate, reviewed diff here.
	LubyMISNodes       []int32    `json:"luby_mis_nodes"`
	LubyMISRounds      int        `json:"luby_mis_rounds"`
	LubyMatchingEdges  [][2]int32 `json:"luby_matching_edges"`
	LubyMatchingRounds int        `json:"luby_matching_rounds"`
}

var goldenWorkloads = []struct {
	stem   string // file stem: the family, plus a size tag when a family has two workloads
	family string
	n, avg int
	seed   uint64
}{
	{"gnm", "gnm", 256, 8, 1},
	{"powerlaw", "powerlaw", 256, 6, 3},
	{"regular", "regular", 192, 6, 5},
	{"grid", "grid", 196, 4, 2},
	// Ragged tails: key vectors that straddle hashfam.BlockKeyGrain
	// blocks, which the sparsify stage search hashes one block at a time.
	{"gnm-n600", "gnm", 600, 9, 11},
}

func goldenRun(t *testing.T, family string, n, avg int, seed uint64, strat Strategy) *goldenFile {
	t.Helper()
	g, err := Generate(family, n, avg, seed)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Parallelism = 1 // the determinism contract makes any level identical; 1 keeps runs cheap
	gf := &goldenFile{Family: family, N: n, AvgDeg: avg, GenSeed: seed, Strategy: string(strat)}
	record := func(edges []graph.Edge, nodes []graph.NodeID, mmS, misS []goldenSearch) {
		gf.MatchingEdges = make([][2]int32, len(edges))
		for i, e := range edges {
			gf.MatchingEdges[i] = [2]int32{int32(e.U), int32(e.V)}
		}
		gf.MISNodes = make([]int32, len(nodes))
		for i, v := range nodes {
			gf.MISNodes[i] = int32(v)
		}
		gf.MatchingSearches = mmS
		gf.MISSearches = misS
	}
	switch strat {
	case StrategySparsify:
		mm := matching.Deterministic(g, p, nil)
		is := mis.Deterministic(g, p, nil)
		var mmS, isS []goldenSearch
		for _, it := range mm.Iterations {
			mmS = append(mmS, goldenSearch{SeedsTried: it.SeedsTried, SeedFound: it.SeedFound, Objective: it.ObjectiveValue})
		}
		for _, it := range is.Iterations {
			isS = append(isS, goldenSearch{SeedsTried: it.SeedsTried, SeedFound: it.SeedFound, Objective: it.ObjectiveValue})
		}
		record(mm.Matching, is.IndependentSet, mmS, isS)
	case StrategyLowDegree:
		mm := lowdeg.MaximalMatching(g, p, nil)
		is := lowdeg.MIS(g, p, nil)
		var mmS, isS []goldenSearch
		for _, ph := range mm.MIS.Phases {
			mmS = append(mmS, goldenSearch{SeedsTried: ph.SeedsTried, SeedFound: ph.SeedFound})
		}
		for _, ph := range is.Phases {
			isS = append(isS, goldenSearch{SeedsTried: ph.SeedsTried, SeedFound: ph.SeedFound})
		}
		record(mm.Matching, is.IndependentSet, mmS, isS)
	default:
		t.Fatalf("golden: unhandled strategy %q", strat)
	}
	src := detrand.New(seed)
	lubyMIS := luby.MIS(g, src)
	lubyMM := luby.MaximalMatching(g, src)
	luby.Verify(g, lubyMIS.IndependentSet, lubyMM.Matching)
	gf.LubyMISNodes = make([]int32, len(lubyMIS.IndependentSet))
	for i, v := range lubyMIS.IndependentSet {
		gf.LubyMISNodes[i] = int32(v)
	}
	gf.LubyMISRounds = len(lubyMIS.Rounds)
	gf.LubyMatchingEdges = make([][2]int32, len(lubyMM.Matching))
	for i, e := range lubyMM.Matching {
		gf.LubyMatchingEdges[i] = [2]int32{int32(e.U), int32(e.V)}
	}
	gf.LubyMatchingRounds = len(lubyMM.Rounds)
	return gf
}

func TestGoldenOutputs(t *testing.T) {
	for _, w := range goldenWorkloads {
		for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
			name := w.stem + "_" + string(strat)
			t.Run(name, func(t *testing.T) {
				got := goldenRun(t, w.family, w.n, w.avg, w.seed, strat)
				raw, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				raw = append(raw, '\n')
				path := filepath.Join("testdata", "golden", name+".json")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run `go test -run TestGoldenOutputs -update .`): %v", err)
				}
				if string(want) != string(raw) {
					var exp goldenFile
					if err := json.Unmarshal(want, &exp); err != nil {
						t.Fatalf("corrupt golden file %s: %v", path, err)
					}
					t.Errorf("%s: output drifted from committed golden file %s\n"+
						"got  %d matching edges / %d MIS nodes / %d+%d searches\n"+
						"want %d matching edges / %d MIS nodes / %d+%d searches\n"+
						"if the change is deliberate, regenerate with -update and review the diff",
						name, path,
						len(got.MatchingEdges), len(got.MISNodes), len(got.MatchingSearches), len(got.MISSearches),
						len(exp.MatchingEdges), len(exp.MISNodes), len(exp.MatchingSearches), len(exp.MISSearches))
				}
			})
		}
	}
}
