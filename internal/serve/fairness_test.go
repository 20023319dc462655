package serve

// Per-engine admission tests: the deficit round-robin scheduler must keep a
// hot fingerprint's backlog from starving colder graphs (the PR 6 layer's
// single shared queue did exactly that), and a client that abandons a
// streaming solve must not burn a worker for the rest of the solve. Both
// properties hold with served bits unchanged — the equivalence harness in
// serve_test.go stays the referee.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
)

// graphForEngine generates deterministic graphs until one fingerprints onto
// the wanted engine index (fp mod engines), so tests can aim traffic at a
// specific queue.
func graphForEngine(t *testing.T, family string, n, deg, engines, want int) *repro.Graph {
	t.Helper()
	for seed := uint64(1); seed < 100; seed++ {
		g := mustGraph(t, family, n, deg, seed)
		if int(uint64(repro.FingerprintOf(g))%uint64(engines)) == want {
			return g
		}
	}
	t.Fatalf("no %s graph (n=%d deg=%d) routing to engine %d of %d within 100 seeds", family, n, deg, want, engines)
	return nil
}

// TestSchedulerDeficitRoundRobin pins the dispatch order of the per-engine
// scheduler with a single worker (serial execution makes the order
// observable and deterministic): a job on a cold engine's queue is
// dispatched ahead of an arbitrarily deep backlog that arrived earlier on a
// hot engine's queue, FIFO order holds within an engine, and with two
// backlogged engines no prefix of the dispatch order is more than
// schedQuantum jobs ahead on one engine.
func TestSchedulerDeficitRoundRobin(t *testing.T) {
	newParked := func(t *testing.T) (*Server, chan struct{}, *job) {
		s := New(Config{Engines: 2, Workers: 1, QueueDepth: 64})
		t.Cleanup(s.Close)
		block := make(chan struct{})
		started := make(chan struct{})
		parked, err := s.enqueue(0, func() { close(started); <-block }, func(error) {})
		if err != nil {
			t.Fatal(err)
		}
		<-started // queue 0 is empty again; the cursor has moved past it
		return s, block, parked
	}
	record := func(s *Server, order *[]string, engine int, name string) *job {
		j, err := s.enqueue(engine, func() { *order = append(*order, name) }, func(error) {})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Scenario 1: six hot jobs queued on engine 0 before one cold job on
	// engine 1. Arrival order must not dominate: the cold job's queue is
	// separate, so it is dispatched ahead of the entire hot backlog.
	s, block, parked := newParked(t)
	var order []string
	var jobs []*job
	for i := 1; i <= 6; i++ {
		jobs = append(jobs, record(s, &order, 0, fmt.Sprintf("H%d", i)))
	}
	jobs = append(jobs, record(s, &order, 1, "C"))
	close(block)
	<-parked.done
	for _, j := range jobs {
		<-j.done
	}
	if len(order) != 7 {
		t.Fatalf("ran %d jobs, want 7: %v", len(order), order)
	}
	coldAt := -1
	prevHot := 0
	for i, name := range order {
		if name == "C" {
			coldAt = i
			continue
		}
		var hn int
		fmt.Sscanf(name, "H%d", &hn)
		if hn <= prevHot {
			t.Fatalf("FIFO violated within engine 0: %v", order)
		}
		prevHot = hn
	}
	if coldAt < 0 || coldAt > schedQuantum {
		t.Fatalf("cold job dispatched at position %d, want <= %d (quantum): %v", coldAt, schedQuantum, order)
	}

	// Scenario 2: equal backlogs on both engines. The deficit grant bounds
	// the interleave: in every prefix of the dispatch order the two engines
	// differ by at most schedQuantum dispatches, so neither backlog runs
	// ahead of the other by more than the grant.
	s2, block2, parked2 := newParked(t)
	var order2 []string
	var jobs2 []*job
	for i := 1; i <= 4; i++ {
		jobs2 = append(jobs2, record(s2, &order2, 0, fmt.Sprintf("A%d", i)))
		jobs2 = append(jobs2, record(s2, &order2, 1, fmt.Sprintf("B%d", i)))
	}
	close(block2)
	<-parked2.done
	for _, j := range jobs2 {
		<-j.done
	}
	balance := 0
	for i, name := range order2 {
		if name[0] == 'A' {
			balance++
		} else {
			balance--
		}
		if balance > schedQuantum || balance < -schedQuantum {
			t.Fatalf("prefix %d of %v is %d dispatches ahead on one engine (quantum %d)", i, order2, balance, schedQuantum)
		}
	}
}

// TestServeStarvationColdFingerprint is the end-to-end starvation
// regression: with Workers=2 and one fingerprint saturating its home
// engine's queue with long sparsify-strategy solves, a cold-fingerprint
// request on the other engine is admitted and served while the hot backlog
// is still queued — and its bits match a direct Engine solve exactly.
// Under the PR 6 single shared queue this request would have waited behind
// every previously queued hot solve.
func TestServeStarvationColdFingerprint(t *testing.T) {
	const engines = 2
	s := New(Config{Engines: engines, Workers: 2, QueueDepth: 64})
	defer s.Close()

	hot := graphForEngine(t, "gnm", 4096, 8, engines, 0)
	cold := graphForEngine(t, "gnm", 64, 4, engines, 1)
	hotIdx, coldIdx := s.engineIndex(repro.FingerprintOf(hot)), s.engineIndex(repro.FingerprintOf(cold))
	if hotIdx == coldIdx {
		t.Fatalf("hot and cold graphs share engine %d", hotIdx)
	}

	want, err := repro.NewEngine(nil).MaximalIndependentSet(cold)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Upload(wireGraph(hot)); err != nil {
		t.Fatal(err)
	}

	// Saturate the hot engine: more long solves than the worker pool can
	// start, so a deep backlog sits on its queue.
	const hotJobs = 8
	sparsify := string(repro.StrategySparsify)
	hotDone := make(chan error, hotJobs)
	for i := 0; i < hotJobs; i++ {
		go func() {
			_, err := s.Solve(context.Background(), &SolveRequest{
				Problem:     ProblemMatching,
				Fingerprint: repro.FingerprintOf(hot).String(),
				Options:     &SolveOptions{Strategy: sparsify},
			})
			hotDone <- err
		}()
	}
	// Wait until the backlog is real: at least half the hot jobs queued on
	// the hot engine (the rest are running or about to).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := s.Stats(); st.PerEngine[hotIdx].Queued >= hotJobs/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hot backlog never formed: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// Upload needs the engine only for Prepare, never the queue — then the
	// cold solve must be dispatched after at most schedQuantum hot
	// dispatches, not after the backlog drains.
	resp, err := s.Solve(context.Background(), &SolveRequest{Problem: ProblemMIS, Graph: wireGraph(cold)})
	if err != nil {
		t.Fatalf("cold solve during hot backlog: %v", err)
	}
	st := s.Stats()
	if st.PerEngine[hotIdx].Queued == 0 {
		t.Fatalf("hot backlog already drained when the cold solve finished — starvation not exercised: %+v", st)
	}
	if err := sameMIS(resp, want); err != nil {
		t.Fatalf("cold solve served wrong bits under hot load: %v", err)
	}
	for i := 0; i < hotJobs; i++ {
		if err := <-hotDone; err != nil {
			t.Fatalf("hot solve %d: %v", i, err)
		}
	}
	// Per-engine accounting: every admission decision happened on the home
	// queue of its request's fingerprint.
	st = s.Stats()
	if got := st.PerEngine[hotIdx].Accepted; got != hotJobs {
		t.Errorf("hot engine accepted %d, want %d", got, hotJobs)
	}
	if got := st.PerEngine[coldIdx].Accepted; got != 1 {
		t.Errorf("cold engine accepted %d, want 1", got)
	}
	if st.Accepted != hotJobs+1 || st.Completed != hotJobs+1 {
		t.Errorf("aggregate counters: %+v", st)
	}
}

// TestServeStreamingDisconnectCancels pins the abandoned-stream contract: a
// client that disconnects mid-stream cancels its solve at the next round
// boundary (the server records a canceled — not completed — solve), and the
// abandoned solve's scratch context is Reset and re-pooled, so the engine
// serves the next request warm and bit-identical.
func TestServeStreamingDisconnectCancels(t *testing.T) {
	s := New(Config{
		Options: &repro.Options{Strategy: repro.StrategySparsify, Parallelism: 1},
		Engines: 1,
		Workers: 1,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := mustGraph(t, "gnm", 8192, 8, 1)

	// Warm the engine (and compute the reference) through a clean solve.
	req := &SolveRequest{Problem: ProblemMatching, Graph: wireGraph(g)}
	warmResp, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Stream the same solve and walk away mid-solve. The client goroutine
	// issues the request and blocks reading the stream; the test cancels the
	// request context as soon as the server has dequeued the solve — i.e.
	// while the worker is deep inside the sparsification stages, long before
	// the final rounds fire.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf, err := json.Marshal(&SolveRequest{Problem: ProblemMatching, Fingerprint: repro.FingerprintOf(g).String(), Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			clientDone <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
		}
		clientDone <- sc.Err()
	}()
	// Wait for the solve to be admitted and dequeued (Accepted counts the
	// warm solve too), then disconnect while it is running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		if st.PerEngine[0].Accepted >= 2 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("streamed solve never started: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()     // client disconnect: the connection drops mid-stream
	<-clientDone // transport observed the cancel; connection is closed

	// The solve must stop at its next round/seed-batch boundary and be
	// recorded as canceled — never completed.
	deadline = time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		if st.Canceled >= 1 {
			break
		}
		if st.Completed >= 2 {
			t.Fatalf("abandoned stream ran to completion: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned stream never canceled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The canceled solve's scratch context went back to the pool Reset, so
	// the follow-up served solve is bit-identical...
	again, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMatching(again, &repro.MatchingResult{Strategy: repro.Strategy(warmResp.Strategy), Iterations: warmResp.Iterations, Edges: respEdges(warmResp)}); err != nil {
		t.Fatalf("post-disconnect solve differs from pre-disconnect: %v", err)
	}
	if testing.Short() || raceEnabled {
		return // alloc budgets hold only without race instrumentation
	}
	// ...and allocation-flat: the warm budget of the root package's
	// TestEngineWarmReuseAllocsConstant still holds on the engine that
	// served (and abandoned) the stream.
	eng := s.engines[0]
	const budget = 2200 // sparsify/mm warm budget (engine_test.go)
	warm := testing.AllocsPerRun(2, func() {
		if _, err := eng.MaximalMatching(g); err != nil {
			t.Fatal(err)
		}
	})
	if warm > budget {
		t.Errorf("post-disconnect warm re-solve allocated %.0f objects, budget %d", warm, budget)
	}
}

// respEdges converts a served edge list back to repro.Edges for the
// bit-comparison helpers.
func respEdges(resp *SolveResponse) []repro.Edge {
	edges := make([]repro.Edge, len(resp.Edges))
	for i, e := range resp.Edges {
		edges[i] = repro.Edge{U: repro.NodeID(e[0]), V: repro.NodeID(e[1])}
	}
	return edges
}
