package serve

// Decoder tests: the one-pass reader must decode every body it accepts
// exactly as json.Unmarshal does, and decline the rest, which then go to
// json.Unmarshal unchanged. The table pins which bodies take which path;
// the fuzzer pins the equality on arbitrary bytes.

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro"
)

// readerAccepts reports whether the one-pass reader takes body, for a
// SolveRequest (upload false) or a bare GraphUpload (upload true).
func readerAccepts(body []byte, upload bool) bool {
	r := reader{b: body}
	var ok bool
	if upload {
		_, ok = r.graph()
	} else {
		_, ok = r.solveRequest()
	}
	return ok && r.end()
}

// checkDecode requires decodeBody to agree with json.Unmarshal into a
// fresh value: the same error-ness and, on success, reflect.DeepEqual
// values, nil versus empty Edges included. It runs decodeBody on a dirty
// value, which must not leak into the result.
func checkDecode(t *testing.T, body []byte, upload bool) {
	t.Helper()
	var got, want any
	var gotErr, wantErr error
	if upload {
		g := GraphUpload{N: 99, Edges: [][2]int32{{7, 8}}}
		var w GraphUpload
		gotErr, wantErr = decodeBody(body, &g), json.Unmarshal(body, &w)
		got, want = g, w
	} else {
		g := SolveRequest{Problem: "dirty", TimeoutMS: 99, Options: &SolveOptions{Strategy: "x"}, Graph: &GraphUpload{N: 5}}
		var w SolveRequest
		gotErr, wantErr = decodeBody(body, &g), json.Unmarshal(body, &w)
		got, want = g, w
	}
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%q: decodeBody err %v, json.Unmarshal err %v", body, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decodeBody gave %+v, json.Unmarshal %+v", body, got, want)
	}
}

// decodeCases are the bodies the table pins, and the fuzzer's seeds.
var decodeCases = []struct {
	name     string
	body     string
	upload   bool // a bare /v1/graphs body
	onePass  bool // the one-pass reader takes it
	wantsErr bool // json.Unmarshal, and so the server, rejects it
}{
	// The one-pass shape.
	{name: "canonical", body: `{"problem":"matching","stream":false,"graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]}}`, onePass: true},
	{name: "fingerprint", body: `{"problem":"mis","fingerprint":"00000000000000ff","stream":true,"timeout_ms":250}`, onePass: true},
	{name: "whitespace", body: " \r\n\t{ \"problem\" :\n\"mis\" , \"graph\" : { \"n\" : 3 , \"edges\" : [ [ 0 , 1 ] ,\t[1,2] ] } } \n", onePass: true},
	{name: "reordered", body: `{"graph":{"edges":[[1,2]],"n":3},"timeout_ms":-4,"stream":true,"fingerprint":"","problem":"matching"}`, onePass: true},
	{name: "empty edges", body: `{"problem":"mis","graph":{"n":2,"edges":[]}}`, onePass: true},
	{name: "no edges", body: `{"problem":"mis","graph":{"n":2}}`, onePass: true},
	{name: "minus zero", body: `{"problem":"mis","graph":{"n":-0,"edges":[[-0,1]]},"timeout_ms":-0}`, onePass: true},
	{name: "int32 extremes", body: `{"graph":{"n":1,"edges":[[-2147483648,2147483647]]}}`, onePass: true},
	{name: "empty object", body: `{}`, onePass: true},
	{name: "huge n", body: `{"n":2000000000,"edges":[]}`, upload: true, onePass: true},
	{name: "upload", body: `{"n":4,"edges":[[0,1],[1,2],[2,3]]}`, upload: true, onePass: true},
	{name: "upload reordered", body: ` {"edges":[[3,2]] ,"n":4} `, upload: true, onePass: true},

	// Off the shape: encoding/json decides.
	{name: "escaped string", body: `{"problem":"m\u0069s","graph":{"n":2,"edges":[[0,1]]}}`},
	{name: "non-ASCII string", body: `{"problem":"mís"}`},
	{name: "case-variant key", body: `{"Problem":"mis","graph":{"n":2,"edges":[[0,1]]}}`},
	{name: "unknown key", body: `{"problem":"mis","graph":{"n":2,"edges":[[0,1]]},"extra":1}`},
	{name: "options", body: `{"problem":"mis","graph":{"n":2,"edges":[[0,1]]},"options":{"parallelism":2}}`},
	{name: "duplicate graph", body: `{"problem":"mis","graph":{"n":3,"edges":[[0,1]]},"graph":{"n":4}}`},
	{name: "duplicate problem", body: `{"problem":"mis","problem":"matching"}`},
	{name: "duplicate n", body: `{"n":3,"n":4}`, upload: true},
	{name: "null graph", body: `{"problem":"mis","graph":null}`},
	{name: "null edges", body: `{"n":2,"edges":null}`, upload: true},
	{name: "null body", body: `null`},
	{name: "short edge", body: `{"problem":"mis","graph":{"n":2,"edges":[[1]]}}`},
	{name: "long edge", body: `{"problem":"mis","graph":{"n":4,"edges":[[1,2,3]]}}`},
	{name: "exponent", body: `{"problem":"mis","graph":{"n":1e2,"edges":[]}}`, wantsErr: true},
	{name: "fraction", body: `{"n":2,"edges":[[0,1.0]]}`, upload: true, wantsErr: true},
	{name: "leading zero", body: `{"problem":"mis","graph":{"n":01,"edges":[]}}`, wantsErr: true},
	{name: "int32 overflow", body: `{"problem":"mis","graph":{"n":2,"edges":[[0,2147483648]]}}`, wantsErr: true},
	{name: "int32 underflow", body: `{"n":2,"edges":[[-2147483649,0]]}`, upload: true, wantsErr: true},
	{name: "int64 overflow", body: `{"n":99999999999999999999}`, upload: true, wantsErr: true},
	{name: "19 digits", body: `{"n":1000000000000000000}`, upload: true},
	{name: "trailing request", body: `{"problem":"mis","graph":{"n":2,"edges":[[0,1]]}}{"problem":"matching","graph":{"n":2,"edges":[[0,1]]}}`, wantsErr: true},
	{name: "trailing byte", body: `{"n":2,"edges":[[0,1]]} x`, upload: true, wantsErr: true},
	{name: "truncated", body: `{"problem":"mis","graph":{"n":2,"edges":[[0,1]`, wantsErr: true},
	{name: "empty body", body: ``, wantsErr: true},
	{name: "string stream", body: `{"problem":"mis","stream":"true"}`, wantsErr: true},
}

// TestDecodeTable pins, body by body, whether the one-pass reader takes it
// and whether it decodes, and checks every body against json.Unmarshal.
func TestDecodeTable(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			body := []byte(c.body)
			if got := readerAccepts(body, c.upload); got != c.onePass {
				t.Errorf("one-pass reader takes it: %v, want %v", got, c.onePass)
			}
			var err error
			if c.upload {
				err = decodeBody(body, new(GraphUpload))
			} else {
				err = decodeBody(body, new(SolveRequest))
			}
			if (err != nil) != c.wantsErr {
				t.Errorf("decodeBody err = %v, want error %v", err, c.wantsErr)
			}
			checkDecode(t, body, c.upload)
		})
	}
}

// TestDecodeEdgesCapacity pins the single allocation of the edge slice:
// its capacity is bounded by the body length, so a body cannot make the
// reader allocate more than a sixth of its length in edges.
func TestDecodeEdgesCapacity(t *testing.T) {
	for _, body := range []string{
		`{"n":2,"edges":[[0,1]]}`,
		`{"n":4,"edges":[[0,1],[1,2],[2,3]]}`,
		`{"n":4,"edges":[]}`,
	} {
		var u GraphUpload
		if err := decodeBody([]byte(body), &u); err != nil {
			t.Fatal(err)
		}
		if cap(u.Edges) > len(body)/6 {
			t.Errorf("%s: edge capacity %d over len(body)/6 = %d", body, cap(u.Edges), len(body)/6)
		}
	}
}

// FuzzDecodeMatchesUnmarshal is the differential fuzzer: on any body, for
// both request types, decodeBody agrees with json.Unmarshal into a fresh
// value. A body the one-pass reader accepts makes decodeBody return nil, so
// checkDecode also fails if json.Unmarshal rejects it.
func FuzzDecodeMatchesUnmarshal(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, upload := range []bool{false, true} {
			checkDecode(t, body, upload)
		}
	})
}

// BenchmarkDecodeSolveRequest decodes the body detbench's serve-inline
// workload sends (an inline GNM n=1024 average-degree-8 graph, ~39 KB)
// through decodeBody, and through json.Unmarshal as the reference, which
// is what the server ran on every body before the one-pass reader.
func BenchmarkDecodeSolveRequest(b *testing.B) {
	g, err := repro.Generate("gnm", 1024, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	graph, err := json.Marshal(wireGraph(g))
	if err != nil {
		b.Fatal(err)
	}
	body := append(append([]byte(`{"problem":"matching","stream":false,"graph":`), graph...), '}')
	if !readerAccepts(body, false) {
		b.Fatal("the serve-inline body is off the one-pass shape")
	}
	for _, bc := range []struct {
		name   string
		decode func(*SolveRequest) error
	}{
		{"reader", func(req *SolveRequest) error { return decodeBody(body, req) }},
		{"encoding_json", func(req *SolveRequest) error { return json.Unmarshal(body, req) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var req SolveRequest
				if err := bc.decode(&req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/(float64(len(body))/1024), "us/KB")
		})
	}
}
