package serve

// Server-path tests: served results must be byte-identical to direct Engine
// solves under concurrent mixed load; overload must reject with 429 /
// repro.ErrOverloaded without corrupting pooled solve state; deadline
// expiry must leave the owning engine warm (alloc-flat re-solve).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

func mustGraph(t *testing.T, family string, n, deg int, seed uint64) *repro.Graph {
	t.Helper()
	g, err := repro.Generate(family, n, deg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func wireGraph(g *repro.Graph) *GraphUpload {
	u := &GraphUpload{N: g.N()}
	for _, e := range g.Edges() {
		u.Edges = append(u.Edges, [2]int32{int32(e.U), int32(e.V)})
	}
	return u
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// sameMatching / sameMIS compare a served response against a direct Engine
// result bit for bit.
func sameMatching(resp *SolveResponse, want *repro.MatchingResult) error {
	if len(resp.Edges) != len(want.Edges) || resp.Iterations != want.Iterations ||
		resp.Strategy != string(want.Strategy) {
		return fmt.Errorf("shape differs: %d edges/%d iters/%s, want %d/%d/%s",
			len(resp.Edges), resp.Iterations, resp.Strategy,
			len(want.Edges), want.Iterations, want.Strategy)
	}
	for i, e := range resp.Edges {
		if e[0] != int32(want.Edges[i].U) || e[1] != int32(want.Edges[i].V) {
			return fmt.Errorf("edge %d is (%d,%d), want %v", i, e[0], e[1], want.Edges[i])
		}
	}
	return nil
}

func sameMIS(resp *SolveResponse, want *repro.MISResult) error {
	if len(resp.Nodes) != len(want.Nodes) || resp.Iterations != want.Iterations ||
		resp.Strategy != string(want.Strategy) {
		return fmt.Errorf("shape differs: %d nodes/%d iters/%s, want %d/%d/%s",
			len(resp.Nodes), resp.Iterations, resp.Strategy,
			len(want.Nodes), want.Iterations, want.Strategy)
	}
	for i, v := range resp.Nodes {
		if v != int32(want.Nodes[i]) {
			return fmt.Errorf("node %d is %d, want %d", i, v, want.Nodes[i])
		}
	}
	return nil
}

// TestServedResultsMatchDirect is the tentpole's acceptance test: an
// httptest server under concurrent mixed matching/MIS traffic — inline
// graphs and fingerprint references, Parallelism 1/2/8 — serves results
// byte-identical to direct Engine solves with the same graph and options.
// The per-engine deficit scheduler changes dispatch order, never bits, and
// its per-engine counters must reconcile exactly with the aggregates.
func TestServedResultsMatchDirect(t *testing.T) {
	graphs := []*repro.Graph{
		mustGraph(t, "gnm", 512, 8, 1),
		mustGraph(t, "powerlaw", 384, 6, 3),
		mustGraph(t, "regular", 384, 6, 5),
	}
	s := New(Config{Engines: 2, Workers: 4, QueueDepth: 256})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Direct references from an independent engine: determinism makes any
	// engine — warm, cold, shared — produce the same bits.
	ref := repro.NewEngine(nil)
	wantMM := make([]*repro.MatchingResult, len(graphs))
	wantIS := make([]*repro.MISResult, len(graphs))
	for i, g := range graphs {
		var err error
		if wantMM[i], err = ref.MaximalMatching(g); err != nil {
			t.Fatal(err)
		}
		if wantIS[i], err = ref.MaximalIndependentSet(g); err != nil {
			t.Fatal(err)
		}
	}

	// Upload every graph once; half the traffic will solve by fingerprint.
	fps := make([]string, len(graphs))
	for i, g := range graphs {
		resp, body := postJSON(t, ts.URL+"/v1/graphs", wireGraph(g))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: status %d: %s", i, resp.StatusCode, body)
		}
		var ur UploadResponse
		if err := json.Unmarshal(body, &ur); err != nil {
			t.Fatal(err)
		}
		if ur.N != g.N() || ur.M != g.M() {
			t.Fatalf("upload %d: reported %d/%d, want %d/%d", i, ur.N, ur.M, g.N(), g.M())
		}
		fps[i] = ur.Fingerprint
	}

	pars := []int{1, 2, 8}
	const perWorker = 6
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < perWorker; r++ {
				gi := (w + r) % len(graphs)
				par := pars[(w+r)%len(pars)]
				req := &SolveRequest{
					Options: &SolveOptions{Parallelism: &par},
				}
				if (w+r)%2 == 0 {
					req.Fingerprint = fps[gi]
				} else {
					req.Graph = wireGraph(graphs[gi])
				}
				if r%2 == 0 {
					req.Problem = ProblemMatching
				} else {
					req.Problem = ProblemMIS
				}
				resp, body := postJSON(t, ts.URL+"/v1/solve", req)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d req %d: status %d: %s", w, r, resp.StatusCode, body)
					return
				}
				var sr SolveResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					errs <- err
					return
				}
				var err error
				if req.Problem == ProblemMatching {
					err = sameMatching(&sr, wantMM[gi])
				} else {
					err = sameMIS(&sr, wantIS[gi])
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d req %d (%s, graph %d, par %d): %w", w, r, req.Problem, gi, par, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Completed == 0 || st.Failed != 0 || st.Rejected != 0 {
		t.Fatalf("unexpected stats after clean load: %+v", st)
	}
	if st.PreparedGraphs != len(graphs) {
		t.Fatalf("prepared %d graphs, want %d (inline re-uploads must dedup)", st.PreparedGraphs, len(graphs))
	}
	// Per-engine accounting must reconcile with the aggregates: every
	// admission landed on exactly one home queue, every dispatch was served,
	// and nothing is left queued after the barrier above.
	var accepted, served, queued int64
	for _, es := range st.PerEngine {
		accepted += es.Accepted
		served += es.Served
		queued += int64(es.Queued)
		if es.Rejected != 0 {
			t.Errorf("engine %d rejected %d under clean load", es.Engine, es.Rejected)
		}
	}
	if accepted != st.Accepted || served != st.Completed || queued != 0 {
		t.Fatalf("per-engine counters do not reconcile (accepted %d/%d, served %d/%d, queued %d): %+v",
			accepted, st.Accepted, served, st.Completed, queued, st.PerEngine)
	}
	if len(st.PerEngine) != 2 {
		t.Fatalf("status reports %d engines, want 2", len(st.PerEngine))
	}
}

// TestServeUploadDedup: identical content (any edge order) shares one
// prepared CSR and reports Shared on re-upload.
func TestServeUploadDedup(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	g := mustGraph(t, "gnm", 128, 6, 7)

	first, err := s.Upload(wireGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if first.Shared {
		t.Fatal("first upload reported Shared")
	}
	// Reverse the edge order: same content, different wire bytes.
	u := wireGraph(g)
	for i, j := 0, len(u.Edges)-1; i < j; i, j = i+1, j-1 {
		u.Edges[i], u.Edges[j] = u.Edges[j], u.Edges[i]
	}
	second, err := s.Upload(u)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Shared || second.Fingerprint != first.Fingerprint {
		t.Fatalf("re-upload not deduplicated: %+v vs %+v", second, first)
	}
	if st := s.Stats(); st.PreparedGraphs != 1 || st.SharedUploads != 1 {
		t.Fatalf("stats after dedup: %+v", st)
	}

	// Bad uploads are 400s, not parses.
	if _, err := s.Upload(&GraphUpload{N: 4, Edges: [][2]int32{{0, 9}}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range edge: err = %v, want ErrBadRequest", err)
	}
}

// TestServeUploadConcurrentShared: of N concurrent uploads of one graph,
// whichever prepares it first reports Shared false and every other one
// true, because Shared comes from the handle each upload got back, not from
// a separate cache lookup that a concurrent upload can overtake.
func TestServeUploadConcurrentShared(t *testing.T) {
	const uploads = 8
	s := New(Config{Workers: 1})
	defer s.Close()
	g := mustGraph(t, "gnm", 128, 6, 7)
	resps := make([]*UploadResponse, uploads)
	errs := make([]error, uploads)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = s.Upload(wireGraph(g))
		}()
	}
	wg.Wait()
	private := 0
	for i, r := range resps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !r.Shared {
			private++
		}
	}
	if st := s.Stats(); private != 1 || st.SharedUploads != uploads-1 || st.PreparedGraphs != 1 {
		t.Fatalf("%d uploads reported Shared false, want 1; stats %+v, want %d shared uploads of 1 graph",
			private, st, uploads-1)
	}
}

// TestServeOverload fills a Workers=1/QueueDepth=1 server with a parked job
// and asserts the next request is rejected with repro.ErrOverloaded (HTTP
// 429) before touching any engine — and that the pooled solve state is
// uncorrupted afterwards (the post-overload solve is bit-identical to the
// direct reference).
func TestServeOverload(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := mustGraph(t, "gnm", 256, 8, 1)

	// Park the only worker — wait until it has actually dequeued the job so
	// the depth-1 buffer is free — then fill the queue.
	block := make(chan struct{})
	started := make(chan struct{})
	parked, err := s.enqueue(0, func() { close(started); <-block }, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.enqueue(0, func() {}, func(error) {})
	if err != nil {
		t.Fatal(err)
	}

	req := &SolveRequest{Problem: ProblemMatching, Graph: wireGraph(g)}
	if _, err := s.Solve(context.Background(), req); !errors.Is(err, repro.ErrOverloaded) {
		t.Fatalf("overloaded Solve: err = %v, want repro.ErrOverloaded", err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded HTTP solve: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Status != http.StatusTooManyRequests {
		t.Fatalf("error envelope: %s (err %v)", body, err)
	}
	if st := s.Stats(); st.Rejected < 2 {
		t.Fatalf("rejected = %d, want >= 2", st.Rejected)
	}

	// Release the worker; service and pooled state must be intact.
	close(block)
	<-parked.done
	<-queued.done
	want, err := repro.NewEngine(nil).MaximalMatching(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMatching(got, want); err != nil {
		t.Fatalf("post-overload solve corrupted: %v", err)
	}
}

// TestServeDeadlineKeepsEngineWarm expires a request deadline mid-solve and
// asserts the taxonomy (repro.ErrDeadlineExceeded / HTTP 504) and the
// engine contract: the owning engine stays warm, so a direct re-solve on it
// is allocation-flat (same budget as the root package's warm-reuse tests;
// skipped under -race and -short like those).
func TestServeDeadlineKeepsEngineWarm(t *testing.T) {
	s := New(Config{
		Options: &repro.Options{Strategy: repro.StrategySparsify, Parallelism: 1},
		Engines: 1,
		Workers: 1,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := mustGraph(t, "gnm", 2048, 8, 1)
	req := &SolveRequest{Problem: ProblemMatching, Graph: wireGraph(g)}

	// Warm the engine through the server path.
	if _, err := s.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	// A deadline the request cannot meet: the deadline clock starts at
	// admission and covers queue wait, so parking the only worker ahead of
	// the request guarantees expiry regardless of how fast the solve itself
	// has become (the engine sees an already-expired context and abandons
	// at its first cancellation poll; the scratch context goes back to the
	// pool Reset). PR 8 made the n=2048 sparsify solve fast enough to beat
	// a 2ms deadline outright, which is why this test parks instead of
	// racing the solver.
	park := func() {
		t.Helper()
		j, err := s.enqueue(0, func() { time.Sleep(50 * time.Millisecond) }, func(error) {})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { <-j.done })
	}
	expired := &SolveRequest{Problem: ProblemMatching, Fingerprint: repro.FingerprintOf(g).String(), TimeoutMS: 2}
	park()
	_, err := s.Solve(context.Background(), expired)
	if !errors.Is(err, repro.ErrDeadlineExceeded) || !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("expired solve: err = %v, want ErrDeadlineExceeded (refining ErrCanceled)", err)
	}
	park()
	httpResp, body := postJSON(t, ts.URL+"/v1/solve", expired)
	if httpResp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired HTTP solve: status %d, want 504 (%s)", httpResp.StatusCode, body)
	}
	if st := s.Stats(); st.Expired < 2 {
		t.Fatalf("expired = %d, want >= 2", st.Expired)
	}

	// The served path must still produce the reference bits.
	want, err := repro.NewEngine(&repro.Options{Strategy: repro.StrategySparsify, Parallelism: 1}).MaximalMatching(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMatching(got, want); err != nil {
		t.Fatalf("post-deadline solve corrupted: %v", err)
	}

	if testing.Short() || raceEnabled {
		return // alloc budgets hold only without race instrumentation
	}
	// Alloc-flat re-solve after the canceled requests: the canceled solves'
	// scratch contexts were re-pooled Reset, so the warm budget of the root
	// package's TestEngineWarmReuseAllocsConstant still holds on the
	// engine that served them.
	eng := s.engines[0]
	const budget = 2200 // sparsify/mm warm budget (engine_test.go)
	warm := testing.AllocsPerRun(2, func() {
		if _, err := eng.MaximalMatching(g); err != nil {
			t.Fatal(err)
		}
	})
	if warm > budget {
		t.Errorf("post-deadline warm re-solve allocated %.0f objects, budget %d", warm, budget)
	}
}

// TestServeStreaming pins the streaming wire contract: NDJSON round lines
// in deterministic order — matching a direct observed solve event for event
// — followed by exactly one result line that matches the non-streaming
// response.
func TestServeStreaming(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := mustGraph(t, "powerlaw", 384, 6, 3)

	// Direct observed reference solve.
	var direct []repro.RoundEvent
	ref := repro.NewEngine(nil)
	wantIS, err := ref.MaximalIndependentSetCtx(context.Background(), g,
		repro.WithObserver(observerFunc(func(ev repro.RoundEvent) { direct = append(direct, ev) })))
	if err != nil {
		t.Fatal(err)
	}

	buf, err := json.Marshal(&SolveRequest{Problem: ProblemMIS, Graph: wireGraph(g), Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("Content-Type %q, want NDJSON", ct)
	}

	var rounds []*RoundUpdate
	var final *StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "round":
			if final != nil {
				t.Fatal("round event after final line")
			}
			rounds = append(rounds, ev.Round)
		case "result", "error":
			final = &ev
		default:
			t.Fatalf("unknown stream event type %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil || final.Type != "result" {
		t.Fatalf("stream ended with %+v, want result", final)
	}
	if err := sameMIS(final.Result, wantIS); err != nil {
		t.Fatalf("streamed result differs from direct solve: %v", err)
	}
	if len(rounds) != len(direct) {
		t.Fatalf("streamed %d rounds, direct observer saw %d", len(rounds), len(direct))
	}
	for i, ru := range rounds {
		want := roundUpdate(direct[i])
		a, _ := json.Marshal(ru)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("round %d: streamed %s, want %s", i, a, b)
		}
	}
	if len(rounds) > 0 && len(rounds[0].SeedBatches) == 0 {
		t.Fatal("streamed rounds carry no seed-batch sub-events")
	}

	// Pre-stream failures are plain status responses, not NDJSON.
	bad, body := postJSON(t, ts.URL+"/v1/solve", &SolveRequest{Problem: "nope", Graph: wireGraph(g), Stream: true})
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad streamed problem: status %d (%s)", bad.StatusCode, body)
	}
}

// TestServeCostsAlways: every served solve is costed, and no option turns
// it off: an unknown option key is ignored, and the response carries the
// solve's costs.
func TestServeCostsAlways(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := []byte(`{"problem":"matching","graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]},"options":{"costs":false}}`)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || got.Costs == nil || got.Costs.SpacePerMachine != 16 {
		t.Fatalf("status %d, costs %+v: want 200 with the costs of a model with S = 16", resp.StatusCode, got.Costs)
	}
}

// TestServeInvalidOptions is the served regression test for the ε crash:
// "epsilon":0.01 passes a plain (0,1] range check but gives 1/δ = 800 ≥
// core.SlotMax, which used to panic on a worker goroutine and kill the
// process. It must be a 400 at admission, streamed or not, and the server
// must go on serving. An unknown strategy is rejected the same way: before
// admission, so no rejected request is accepted, fails or prepares its
// inline graph.
func TestServeInvalidOptions(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const graphJSON = `"graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]}`
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.String()
	}
	for _, c := range []struct{ body, want string }{
		{`{"problem":"matching",` + graphJSON + `,"options":{"epsilon":0.01}}`, "invalid option"},
		{`{"problem":"matching",` + graphJSON + `,"options":{"epsilon":0.01},"stream":true}`, "invalid option"},
		{`{"problem":"mis",` + graphJSON + `,"options":{"epsilon":0.12},"stream":true}`, "invalid option"},
		{`{"problem":"mis",` + graphJSON + `,"options":{"slack":-1}}`, "invalid option"},
		{`{"problem":"mis",` + graphJSON + `,"options":{"threshold_frac":2}}`, "invalid option"},
		{`{"problem":"matching",` + graphJSON + `,"options":{"strategy":"bogus"}}`, `unknown strategy \"bogus\"`},
		{`{"problem":"mis",` + graphJSON + `,"options":{"strategy":"bogus"},"stream":true}`, `unknown strategy \"bogus\"`},
	} {
		if status, out := post(c.body); status != http.StatusBadRequest || !strings.Contains(out, c.want) {
			t.Errorf("%s: status %d (%s), want 400 %s", c.body, status, out, c.want)
		}
	}
	if st := s.Stats(); st.Accepted != 0 || st.Failed != 0 || st.PreparedGraphs != 0 {
		t.Fatalf("after rejected requests: accepted %d, failed %d, prepared graphs %d; want all 0", st.Accepted, st.Failed, st.PreparedGraphs)
	}
	status, out := post(`{"problem":"matching",` + graphJSON + `}`)
	if status != http.StatusOK {
		t.Fatalf("valid request after rejected ones: status %d (%s)", status, out)
	}
	var resp SolveResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Edges) != 2 {
		t.Fatalf("P4 matching %v, want 2 edges", resp.Edges)
	}
	// The in-process Server.Solve rejects the same way.
	var req SolveRequest
	if err := json.Unmarshal([]byte(`{"problem":"matching",`+graphJSON+`,"options":{"epsilon":0.01}}`), &req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), &req); !errors.Is(err, repro.ErrInvalidOption) {
		t.Fatalf("Server.Solve err = %v, want repro.ErrInvalidOption", err)
	}
}

// TestServeStatusEndpoint: GET /v1/status serves the Stats snapshot, and
// the removed /v1/stats alias is a 404.
func TestServeStatusEndpoint(t *testing.T) {
	s := New(Config{Engines: 2, Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/status: status %d", resp.StatusCode)
	}
	if want := s.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("/v1/status = %+v, want %+v", got, want)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/stats: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPStatusMapping pins the error taxonomy → status code table.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{fmt.Errorf("x: %w", repro.ErrOverloaded), http.StatusTooManyRequests},
		{fmt.Errorf("%w: %w: %w", repro.ErrCanceled, repro.ErrDeadlineExceeded, context.DeadlineExceeded), http.StatusGatewayTimeout},
		{fmt.Errorf("%w: %w", repro.ErrCanceled, context.Canceled), 499},
		{fmt.Errorf("%w: junk", ErrBadRequest), http.StatusBadRequest},
		{fmt.Errorf("%w: body over the 4096-byte limit", ErrTooLarge), http.StatusRequestEntityTooLarge},
		{fmt.Errorf("%w: epsilon 0.01", repro.ErrInvalidOption), http.StatusBadRequest},
		{repro.ErrUnknownStrategy, http.StatusBadRequest},
		{repro.ErrNilGraph, http.StatusBadRequest},
		{fmt.Errorf("%w: abc", ErrUnknownFingerprint), http.StatusNotFound},
		{ErrServerClosed, http.StatusServiceUnavailable},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.err); got != c.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestServeClose: shutdown drains queued-but-unstarted jobs with
// ErrServerClosed and rejects new work.
func TestServeClose(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	block := make(chan struct{})
	parked, err := s.enqueue(0, func() { <-block }, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	var abortErr error
	queued, err := s.enqueue(0, func() {}, func(e error) { abortErr = e })
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		close(block) // let the parked job finish so Close's wg.Wait returns
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	<-parked.done
	<-queued.done
	if abortErr != nil && !errors.Is(abortErr, ErrServerClosed) {
		t.Fatalf("drained job error = %v, want ErrServerClosed or nil (ran before shutdown)", abortErr)
	}
	if _, err := s.enqueue(0, func() {}, func(error) {}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-Close enqueue: err = %v, want ErrServerClosed", err)
	}
	g := mustGraph(t, "path", 8, 2, 1)
	if _, err := s.Solve(context.Background(), &SolveRequest{Problem: ProblemMIS, Graph: wireGraph(g)}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-Close Solve: err = %v, want ErrServerClosed", err)
	}
}
