# Local developer entry points, kept in lockstep with .github/workflows/ci.yml:
# `make ci` runs exactly what CI runs, so a green local `make ci` means a
# green pipeline.

GO ?= go
BENCH_PATTERN ?= .
BENCH_OUT ?= BENCH_results.json
# bench-save: one iteration per benchmark by default — the heavy pipeline
# benchmarks run 1-15 s per op, so 1x keeps a full baseline run under a
# minute while still timing every real computation. Raise for quieter
# numbers on a dedicated box (e.g. make bench-save BENCH_TIME=2s).
BENCH_TIME ?= 1x
BENCH_DATE := $(shell date +%F)
# The committed baseline the compare step diffs against: the latest
# BENCH_<date>*.json at the repo root. Names sort chronologically under
# LC_ALL=C (locale collation would order same-day letter suffixes before the
# bare date and silently pick a stale baseline).
BENCH_BASELINE ?= $(shell ls BENCH_2*.json 2>/dev/null | LC_ALL=C sort | tail -1)
# Benchmarks whose ns/op regression beyond 20% draws a warning (never a
# failure): the seed-search kernel, its isolated edge- and node-side
# selection scans and blocked hash term, the warm-Engine reuse pairs, and
# the sparsify stage-search pair, whose searches stop at a batch's first
# qualifying candidate (a return to whole-batch scoring multiplies it).
BENCH_WARN ?= BenchmarkT7_SeedSearch|BenchmarkT7_SelectionScan|BenchmarkT7_NodeSelectionScan|BenchmarkLocalMinNodesSel|BenchmarkEvalSeedsBlocked|BenchmarkEngineReuse|BenchmarkSparsifySeedSearch
# Repetitions per benchmark for bench-smoke/bench-save: benchjson -median
# collapses the runs into per-benchmark medians, so one noisy-runner outlier
# out of three no longer reads as a regression in bench-compare.
BENCH_COUNT ?= 3

.PHONY: build build-cmds build-cross test race race-engine fuzz-smoke bench bench-smoke bench-save bench-compare serve-smoke profile clean fmt fmt-check vet lint audit ci

build:
	$(GO) build ./...

# Every runnable entry point, explicitly: the CLI commands and the example
# programs. They live in the root module so `make build` compiles them today,
# but this target pins the invariant — if an example ever gains a build tag
# or moves into its own module, CI still builds every main package instead of
# silently drifting. cmd/detbench, the repository's benchmark, is a module of
# its own (`./cmd/...` skips it), so it is built and vetted from its own
# directory; it has no dependencies outside this repository. Its binary goes
# to /dev/null: building a lone main package would otherwise drop one there.
build-cmds:
	$(GO) build ./cmd/...
	$(GO) build ./examples/...
	cd cmd/detbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# Cross-compile check. The repository is portable Go with no assembly and
# no GOARCH-gated file, so the one build that can fail where the native one
# passes is 386, the 32-bit target: int is 32 bits there, so a constant or
# bound that overflows int (a `v > 1<<31` check once passed go test and the
# 64-bit builds) fails to compile, and so would a narrowing of the Linial
# point tables' uint32 values.
build-cross:
	GOARCH=amd64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...

# Fast feedback: full suite without the race detector.
test:
	$(GO) test ./...

# What CI runs: the full suite under the race detector. The
# worker-count-independence tests (parallel_determinism_test.go) only prove
# the determinism contract when scheduling is adversarial, so -race is the
# configuration that counts. cmd/detbench is its own module, so its tests
# run from its directory.
race:
	$(GO) test -race -timeout 45m ./...
	cd cmd/detbench && $(GO) test -race ./...

# The warm-Engine determinism tables in isolation, plus the cross-path
# equivalence tables (sharded vs serial EvalKeys; the lowdeg incident-count
# objective vs the full-graph scan; the sparsify stage fold vs its full-row
# count, and the hashed-once stage items vs the expanded-key scoring at
# Parallelism 1/2/8; the list stage chains' run layouts and audits vs the
# CSR-slot and mask layouts and sharded audits they replaced, stage by
# stage on the wrappers' chains; the audit-free
# SparsifyEdgesIn/SparsifyNodesIn vs the audited wrappers, the handed-over E* list vs EStar.Edges(), the stage
# apply through the row its search hashed last vs EvalKeysW (first
# candidate wins, later candidate wins, no all-good seed), and the
# degree-class table vs DegreeClasses.Class; the fold and stamped
# selections and the blocked kernel vs their references; the core
# selections every candidate seed is scored through vs per-seed EvalKeys +
# selection, and the seed search's miss path vs a per-candidate reference;
# the stop-at-the-winner seed search vs whole-batch scoring, and its count
# of the candidates it scores; the implicit G² colouring vs Linial
# on the materialised square at Parallelism 1/2/8, each tabulated Linial
# round vs the walk-and-evaluate round, on real colourings and fuzzed
# improper ones, the one r-ball walk vs the separate word and Δ(G²) walks,
# the CSR-slot line graph vs its map-indexed build, the MIS node state vs
# alive and in-set masks, the Section 5 preprocessing stopping at its
# cancellation polls, and the matching path's 2-hop word scan vs a plain
# loop on both sides of internal/parallel's serial cutoff) and the
# request-scoped API tables
# (cancellation at every Parallelism level against a shared engine,
# per-solve override equivalence, observer-stream determinism, every round
# loop's events vs its round records): worker-count
# independence of a REUSED engine (dirty scratch buffers, pooled contexts)
# under the race detector. Part of `make race` too; this target mirrors the
# dedicated CI job so an engine-reuse, equivalence or cancellation
# regression is attributable at a glance. The serve package rides along:
# its tests byte-compare served responses against direct Engine solves
# under concurrent mixed load, which is the same contract one layer up.
# So do internal/parallel's serial-cutoff tables, ten times each: below
# the cutoff every entry point runs its shards in ascending order on the
# caller, one at a time, at 1, 2 and 8 workers; at the cutoff two shards
# meet in flight; on both sides every index is visited once and a float
# fold is bit-identical; and the serial path allocates nothing.
#
# `go test -run` silently skips a name that matches nothing, so a renamed
# or deleted table would quietly drop out of the job: the target first
# checks, through `go test -list`, that every listed name is a test, fuzz
# target or benchmark of its packages, and fails otherwise.
ENGINE_TABLES := TestEngineReuseWorkerCountIndependence|TestEngineConcurrentSolves|TestEvalKeysShardedMatchesSerial|TestEngineCancellationWorkerCountTable|TestEngineCancellationMidSolve|TestSolveOptionOverrideEquivalence|TestObserverDeterministicAcrossParallelism|TestObserverSeedBatchEvents|TestPreparedSolveEquivalence|TestObserverEventsMatchResults
EQUIV_TABLES := TestNodeGroupMatchesSel|TestEdgeGroupMatchesSel|TestSeedSearchMissPath|TestLocalMinEdgesSelBranchEquivalence|TestLocalMinNodesSelBranchEquivalence|TestNodeFoldBlockedScatter|TestEdgeFoldMatchesLocalMinEdgesSel|TestEvalSeedsBlockedMatchesEvalKeys|FuzzLocalMinNodesFoldMatchesSel|FuzzEdgeFoldMatchesLocalMinEdgesSel|FuzzEvalSeedsBlockedMatchesEvalKeys|TestIncidentEdgesMatchesFullScan|TestStageFoldMatchesCountGood|TestStageItemsMatchExpandedKeys|TestListChainMatchesCSRChain|TestSparsifyInMatchesWrapper|TestEStarEdgesMatchEdges|TestStageApplyMatchesEvalKeysW|TestClassTableMatchesClass|TestSearchAtLeastBatchMatchesWholeBatch|TestSearchAtLeastBatchScoresLazily|TestLinialG2MatchesSquareReference|TestLinialRoundMatchesWalkReference|FuzzLinialRoundMatchesWalkReference|TestBallStatsMatchesSeparateWalks|TestLineGraphMatchesMapReference|TestMISNodesMatchesMasks|TestLinialG2StopsWhenDone|TestMISInCanceledInPreprocessing|TestMaxTwoHopWordsMatchesSerial
EQUIV_PKGS := ./internal/core/ ./internal/hashfam/ ./internal/lowdeg/ ./internal/sparsify/ ./internal/condexp/ ./internal/coloring/ ./internal/graph/ ./internal/matching/
PARALLEL_TABLES := TestSerialBelowCutoff|TestParallelAtCutoff|TestForCoversEveryIndexOnce|TestForEachWritesDisjointIndices|TestMapReduceDeterministicFloatFold|TestSerialPathAllocatesNothing
# check-tests fails unless every name of the |-separated list $(1) is a
# top-level test, fuzz target or benchmark of the packages $(2).
check-tests = listed="$$($(GO) test -list '^($(1))$$' $(2))" || exit 1; \
	for name in $$(echo '$(1)' | tr '|' ' '); do \
		echo "$$listed" | grep -qx "$$name" || { echo "$@: $$name matches no test in $(2)"; exit 1; }; \
	done

race-engine:
	@$(call check-tests,$(ENGINE_TABLES),.)
	@$(call check-tests,$(EQUIV_TABLES),$(EQUIV_PKGS))
	@$(call check-tests,$(PARALLEL_TABLES),./internal/parallel/)
	$(GO) test -race -timeout 30m -run '^($(ENGINE_TABLES))$$' .
	$(GO) test -race -timeout 30m ./internal/serve/
	$(GO) test -race -timeout 30m -run '^($(EQUIV_TABLES))$$' $(EQUIV_PKGS)
	$(GO) test -race -count=10 -timeout 30m -run '^($(PARALLEL_TABLES))$$' ./internal/parallel/

# Fuzz targets, each fuzzed for 30 s and named as package:target:
# internal/serve's FuzzDecodeMatchesUnmarshal, the differential fuzzer that
# pins the one-pass request-body reader to json.Unmarshal, and
# FuzzServeHandlers, which sends raw bodies through Handler(); and the root
# package's FuzzSolveValid, which solves arbitrary small graphs under each
# strategy (sparsify, lowdeg, auto) with fuzzed option values, checks every
# output with internal/check and for its cost report, and compares
# Parallelism 1 against 8. `go test ./...` only replays their seeds; this
# target makes them search. -fuzzminimizetime caps the time a worker spends
# shrinking each new-coverage input (60 s by default, long enough to stall
# a short run). As in race-engine, every
# listed name must be a fuzz target of its package: `go test -fuzz` with a
# pattern that matches nothing passes.
FUZZ_TARGETS := ./internal/serve/:FuzzDecodeMatchesUnmarshal ./internal/serve/:FuzzServeHandlers .:FuzzSolveValid

fuzz-smoke:
	@$(foreach e,$(FUZZ_TARGETS),$(call check-tests,$(lastword $(subst :, ,$(e))),$(firstword $(subst :, ,$(e))));)
	for e in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${e#*:}$$" -fuzztime 30s -fuzzminimizetime 5s "$${e%%:*}" || exit 1; \
	done

# Full benchmark run (minutes); BENCH_PATTERN narrows it.
bench:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -run '^$$' .

# One iteration per benchmark, repeated BENCH_COUNT times and collapsed to
# per-benchmark medians: compiles and exercises every benchmark body, emits
# $(BENCH_OUT) via cmd/benchjson -median. Runs with -benchmem so the archived
# JSON carries B/op + allocs/op and the allocation trajectory can be diffed
# across commits alongside ns/op.
bench-smoke:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchtime 1x -count $(BENCH_COUNT) -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -median -o $(BENCH_OUT)

# Archive a dated benchmark baseline at the repo root: the full suite through
# cmd/benchjson into BENCH_<date>.json. Commit the file so the performance
# trajectory is diffable across PRs (bench-compare reads the latest one).
# Refuses to clobber an existing baseline for the same date — a committed
# baseline is a historical record; overwrite deliberately by removing the
# file, or pass BENCH_DATE=<date>a for a second run on one day (a letter
# suffix sorts after the bare date under LC_ALL=C, so bench-compare picks
# the newer file; a '-2' suffix would sort before it and go stale).
bench-save:
	@if [ -e BENCH_$(BENCH_DATE).json ]; then \
		echo "bench-save: BENCH_$(BENCH_DATE).json already exists; refusing to overwrite a committed baseline."; \
		echo "bench-save: remove it first, or rerun with BENCH_DATE=$(BENCH_DATE)a (a letter suffix keeps the name sorting after the original, so bench-compare picks it up)."; \
		exit 1; \
	fi
	$(GO) test -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -median -o BENCH_$(BENCH_DATE).json

# End-to-end serving smoke: two 5 s detbench windows over real HTTP, each
# against its own `detservd -engines 2 -workers 2` that detbench starts on a
# free port and stops. serve-fp solves uploaded graphs by fingerprint and
# streams every fourth request; serve-inline sends every graph inline. Every
# response is checked: bit for bit against a direct Engine solve, except
# serve-inline's non-streamed one-off graphs, which are checked for
# maximality. A wrong, failed or rejected response fails the run, and with
# it the target. detbench and detservd build into the git-ignored
# .bench_build/.
serve-smoke:
	bash cmd/detbench/run.sh --workload serve-fp --seed 1 --seconds 5 --trace 0
	bash cmd/detbench/run.sh --workload serve-inline --seed 1 --seconds 5 --trace 0

# Diff a bench-smoke result ($(BENCH_OUT)) against the committed baseline,
# warning — never failing — on >20% ns/op regressions in $(BENCH_WARN).
# Run `make bench-smoke` (or CI's bench-smoke job) first.
bench-compare:
	@if [ -z "$(BENCH_BASELINE)" ]; then echo "bench-compare: no committed BENCH_*.json baseline"; exit 1; fi
	@echo "bench-compare: diffing $(BENCH_OUT) against baseline $(BENCH_BASELINE)"
	$(GO) run ./cmd/benchjson -input $(BENCH_OUT) -compare $(BENCH_BASELINE) -warn '$(BENCH_WARN)' -warn-pct 20

# CPU profiles of four benchmarks into the git-ignored profiles/ directory,
# ready for `go tool pprof profiles/<name>.pprof`:
#   - sparsify: warm-Engine re-solves on the shapes of detbench's
#     inproc-sparsify (BenchmarkEngineReuseSparsify: a matching and an MIS
#     on each of four G(n,m) graphs, n = 4096, average degree 16, with a
#     counting observer). Unlike a fresh-scratch solve, which spent ~10% of
#     its samples allocating and zeroing scratch, a warm solve pays ~2% in
#     the allocator. The stage seed searches are
#     ~14% of samples (the 4-wise hash, intmath.Reducer.EvalPoly, 3-6%),
#     the stage run layouts (sparsify.edgeStageItems/nodeStageItems) ~15%,
#     the one CSR build per edge sparsification (E*, graph.FromEdgesInto)
#     ~5%, and the CSR filters (graph.maskFilterInto: the outer loops'
#     WithoutNodesInto and the graph induced on Q') ~14%. Building a CSR
#     for every E_j and relabelling its slots (graph.EdgeIDsInto) took
#     ~10% before the stage chains carried their items as lists, and the
#     warm iteration went from ~54-65 to ~45-53 ms. Four costs no solve
#     reads took ~13% of samples before SparsifyEdgesIn/SparsifyNodesIn
#     dropped them: the Lemma 10/11/17/18 audits ~6%, the stage apply
#     steps' second hash of the winner's items ~2%, rebuilding E*'s edge
#     list from its CSR ~2% and the per-node parallel class closure ~2.4%.
#     The class table that replaced the last one is ~0.7%; the other three
#     are gone. At ~50 ms per iteration (eight solves), 60 iterations give
#     ~3 s of samples.
#   - t5_lowdeg: the Section 5 stage-compressed MIS on an 8-regular graph
#     (BenchmarkT5_LowDegreeStages). Its Linial colouring needs no
#     reduction round on this graph, and it builds no line graph. The one
#     r-ball walk of its preprocessing (lowdeg.ballStats over
#     graph.BallUnsortedInto) is ~50% of samples, the 2-path scan of
#     coloring.VerifyDistance2 ~18%, the phases' seed searches ~8% and
#     their CSR filters ~4%. At ~3.6 ms per solve, 120 iterations give
#     ~0.4 s of samples.
#   - lowdeg: warm-Engine re-solves on the shapes of detbench's
#     inproc-lowdeg (BenchmarkEngineReuseLowDegree: a matching and an MIS
#     on a 64x64 grid and on a 3-regular graph, n = 4096). The matchings
#     solve MIS on line graphs, where the Linial rounds do run. The one
#     r-ball walk is ~43% of samples, the rounds' 2-path scans against the
#     point tables ~11% and the table fills ~5%, VerifyDistance2 ~9%, the
#     line-graph builds ~7% and the phases' CSR filters ~4%. At ~25 ms per
#     iteration (four solves), 60 iterations give ~1.5 s of samples.
#   - t7_seedsearch: the isolated seed-search terms: one missed 64-seed
#     batch, every candidate through core.EdgeGroup.Select at one worker,
#     and the edge- and node-side selection scans.
# CI archives the directory as an artifact so a perf regression surfaced by
# bench-compare comes with the profile that explains it. The test binary
# lands in profiles/ too (pprof wants it for symbolization).
profile:
	mkdir -p profiles
	$(GO) test -bench 'BenchmarkEngineReuseSparsify' -benchtime 60x -benchmem -run '^$$' -cpuprofile profiles/sparsify.pprof -o profiles/repro.test .
	$(GO) test -bench 'BenchmarkT5_LowDegreeStages' -benchtime 120x -benchmem -run '^$$' -cpuprofile profiles/t5_lowdeg.pprof -o profiles/repro.test .
	$(GO) test -bench 'BenchmarkEngineReuseLowDegree' -benchtime 60x -benchmem -run '^$$' -cpuprofile profiles/lowdeg.pprof -o profiles/repro.test .
	$(GO) test -bench 'BenchmarkT7_SeedSearch|BenchmarkT7_SelectionScan|BenchmarkT7_NodeSelectionScan' -benchtime 100x -benchmem -run '^$$' -cpuprofile profiles/t7_seedsearch.pprof -o profiles/repro.test .

# Remove build leftovers: stray compiled test binaries (go test -c and
# aborted -cpuprofile runs drop *.test at the repo root), the detlint binary,
# the uncommitted bench result JSON and the profiles/ directory. Committed
# BENCH_<date>.json baselines are untouched. Runs as the `make ci` teardown;
# CI jobs upload their artifacts from their own steps before this would
# matter.
clean:
	rm -f *.test .tmp-detlint $(BENCH_OUT)
	rm -rf profiles

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# detlint: the in-tree analyzer suite (cmd/detlint, internal/lint)
# mechanically enforcing the determinism and allocation contracts —
# no raw goroutines or map-range iteration in solver packages, no
# math/rand / wall clock / environment reads on solver paths, no
# unstable sort.Slice anywhere, no captured-float folds in parallel
# shard bodies, no allocation in //det:hotpath kernels. Exemptions are
# explicit in the source as //det:allow <analyzer> <reason>; unused or
# malformed directives fail the run too. The binary is built fresh from
# the tree (stdlib-only, seconds) so the checker can never lag the
# contracts it enforces; `make clean` removes it.
lint:
	$(GO) build -o .tmp-detlint ./cmd/detlint
	./.tmp-detlint ./...

# Pinned third-party audits, invoked via `go run pkg@version` so nothing
# is ever added to go.mod: staticcheck (correctness/style) and
# govulncheck (known-vulnerability reachability). Network-dependent —
# go run fetches the pinned tool and govulncheck queries the vuln DB —
# so this is deliberately NOT part of `make ci`; CI runs it as a
# separate advisory (continue-on-error) job, and offline runs fail fast
# at the download step without affecting anything else.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
audit:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

ci: build build-cmds build-cross vet fmt-check lint race race-engine fuzz-smoke bench-smoke serve-smoke clean
