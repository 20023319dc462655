package serve

// Request-body limit tests: a body over Config.MaxBodyBytes, or a graph
// whose node count the limit cannot justify, is a 413 before anything is
// allocated for it; trailing bytes after the JSON value are a 400; and no
// raw body makes a handler panic or answer outside 200/400/404/413.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/check"
)

// hugeN is a 30-byte body whose n would make FromEdges allocate
// gigabytes.
const hugeN = `{"n":2000000000,"edges":[]}`

// serveBody sends one raw POST body through the handler.
func serveBody(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestServeTooLarge pins the 413s: the huge-n body, over HTTP and in
// process (where the whole call allocates less than 64 KB), a node count
// one past what the body limit allows, and a body one byte over the limit.
func TestServeTooLarge(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	for path, body := range map[string]string{
		"/v1/graphs": hugeN,
		"/v1/solve":  `{"problem":"mis","graph":` + hugeN + `}`,
	} {
		if rec := serveBody(h, path, []byte(body)); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s: status %d, want 413 (%s)", path, body, rec.Code, rec.Body)
		}
	}

	const budget = 64 << 10
	var err error
	if n := allocatedBytes(func() {
		var u GraphUpload
		if err = decodeBody([]byte(hugeN), &u); err == nil {
			_, err = s.Upload(&u)
		}
	}); n >= budget {
		t.Errorf("decoding and uploading the huge-n body allocated %d bytes, want < %d", n, budget)
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge-n upload: err = %v, want ErrTooLarge", err)
	}
	if n := allocatedBytes(func() {
		_, err = s.Solve(context.Background(), &SolveRequest{Problem: ProblemMIS, Graph: &GraphUpload{N: 2000000000}})
	}); n >= budget {
		t.Errorf("solving the huge-n graph allocated %d bytes, want < %d", n, budget)
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge-n solve: err = %v, want ErrTooLarge", err)
	}

	// The rule is exact: with a 4 KB limit the offset array of n = 1023,
	// 4·1024 bytes, fits and that of n = 1024 does not.
	small := New(Config{Workers: 1, MaxBodyBytes: 4096})
	defer small.Close()
	if _, err := small.Upload(&GraphUpload{N: 1023}); err != nil {
		t.Errorf("n = 1023 under a 4096-byte limit: %v", err)
	}
	if _, err := small.Upload(&GraphUpload{N: 1024}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("n = 1024 under a 4096-byte limit: err = %v, want ErrTooLarge", err)
	}

	// A body one byte over the limit is a 413; at the limit it is served.
	upload := `{"n":2,"edges":[[0,1]]}`
	atLimit := []byte(upload + strings.Repeat(" ", 4096-len(upload)))
	h = small.Handler()
	if rec := serveBody(h, "/v1/graphs", atLimit); rec.Code != http.StatusOK {
		t.Errorf("body at the limit: status %d, want 200 (%s)", rec.Code, rec.Body)
	}
	if rec := serveBody(h, "/v1/graphs", append(atLimit, ' ')); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("body one byte over the limit: status %d, want 413 (%s)", rec.Code, rec.Body)
	}
}

// TestServeTrailingBytes: a body holding a second JSON value after the
// first is a 400. json.Decoder used to decode the first value and drop the
// rest, so this body solved the MIS request.
func TestServeTrailingBytes(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for path, body := range map[string]string{
		"/v1/solve":  `{"problem":"mis","graph":{"n":2,"edges":[[0,1]]}}{"problem":"matching","graph":{"n":2,"edges":[[0,1]]}}`,
		"/v1/graphs": `{"n":2,"edges":[[0,1]]} {"n":3}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", path, body, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.Accepted != 0 || st.Uploads != 0 {
		t.Errorf("a body with trailing bytes reached the server: %+v", st)
	}
}

// FuzzServeHandlers sends raw bodies to POST /v1/solve and POST /v1/graphs
// on a server whose 4 KB body limit caps every accepted graph at n = 1023.
// No body may panic a handler or get a status other than 200, 400, 404 or
// 413 — or 504, for a body that sets its own timeout_ms — and every solve
// answered 200 must be maximal for the graph the body names, which for a
// fingerprint is a graph uploaded before the body is sent.
func FuzzServeHandlers(f *testing.F) {
	known := repro.FromEdges(6, []repro.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0}, {U: 0, V: 3}})
	fp := repro.FingerprintOf(known).String()
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(hugeN))
	f.Add([]byte(`{"n":2,"edges":[[0,1]]}` + strings.Repeat(" ", 4096)))
	f.Add([]byte(`{"problem":"matching","fingerprint":"` + fp + `"}`))
	f.Add([]byte(`{"problem":"mis","fingerprint":"` + fp + `","stream":true,"options":{"strategy":"sparsify","parallelism":3}}`))
	f.Add([]byte(`{"problem":"matching","graph":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0]]},"options":{"strategy":"lowdeg"}}`))
	f.Add([]byte(`{"problem":"mis","graph":{"n":3,"edges":[[0,1],[1,2],[2,0]]},"timeout_ms":1}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1, MaxBodyBytes: 4096})
		defer s.Close()
		if _, err := s.Upload(wireGraph(known)); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()

		var req SolveRequest
		decoded := json.Unmarshal(body, &req) == nil
		allowed := func(status int) bool {
			switch status {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
				return true
			case http.StatusGatewayTimeout:
				return decoded && req.TimeoutMS > 0
			}
			return false
		}
		rec := serveBody(h, "/v1/solve", body)
		if !allowed(rec.Code) {
			t.Fatalf("/v1/solve %q: status %d (%s)", body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK {
			if !decoded {
				t.Fatalf("/v1/solve %q: 200 for a body json.Unmarshal rejects", body)
			}
			resp, errStatus := solveResult(t, rec, req.Stream)
			if resp == nil {
				if !allowed(errStatus) {
					t.Fatalf("/v1/solve %q: stream ended with status %d", body, errStatus)
				}
			} else {
				g := known
				if req.Graph != nil {
					g = uploadedGraph(req.Graph)
				}
				if err := maximal(g, req.Problem, resp); err != nil {
					t.Fatalf("/v1/solve %q: %v", body, err)
				}
			}
		}

		rec = serveBody(h, "/v1/graphs", body)
		if !allowed(rec.Code) || rec.Code == http.StatusGatewayTimeout {
			t.Fatalf("/v1/graphs %q: status %d (%s)", body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK {
			var u GraphUpload
			if err := json.Unmarshal(body, &u); err != nil {
				t.Fatalf("/v1/graphs %q: 200 for a body json.Unmarshal rejects: %v", body, err)
			}
			var ur UploadResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
				t.Fatal(err)
			}
			g := uploadedGraph(&u)
			if ur.Fingerprint != repro.FingerprintOf(g).String() || ur.N != g.N() || ur.M != g.M() {
				t.Fatalf("/v1/graphs %q: answered %+v for a graph of n=%d m=%d", body, ur, g.N(), g.M())
			}
		}
	})
}

// uploadedGraph builds a wire graph the server accepted.
func uploadedGraph(u *GraphUpload) *repro.Graph {
	edges := make([]repro.Edge, len(u.Edges))
	for i, e := range u.Edges {
		edges[i] = repro.Edge{U: repro.NodeID(e[0]), V: repro.NodeID(e[1])}
	}
	return repro.FromEdges(u.N, edges)
}

// solveResult reads a 200 solve response: the result, or for a stream
// whose last line is an error, nil and that line's status.
func solveResult(t *testing.T, rec *httptest.ResponseRecorder, stream bool) (*SolveResponse, int) {
	t.Helper()
	if !stream {
		var resp SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return &resp, http.StatusOK
	}
	var last StreamEvent
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		last = StreamEvent{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	switch last.Type {
	case "result":
		return last.Result, http.StatusOK
	case "error":
		return nil, last.Status
	}
	t.Fatalf("stream ended with a %q line", last.Type)
	return nil, 0
}

// maximal checks a served solve with internal/check.
func maximal(g *repro.Graph, problem string, resp *SolveResponse) error {
	var ok bool
	var reason string
	switch problem {
	case ProblemMatching:
		ok, reason = check.IsMaximalMatching(g, respEdges(resp))
	case ProblemMIS:
		nodes := make([]repro.NodeID, len(resp.Nodes))
		for i, v := range resp.Nodes {
			nodes[i] = repro.NodeID(v)
		}
		ok, reason = check.IsMaximalIS(g, nodes)
	default:
		return fmt.Errorf("200 for problem %q", problem)
	}
	if !ok {
		return fmt.Errorf("%s result not maximal: %s", problem, reason)
	}
	return nil
}
