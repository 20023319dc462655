package serve

// The request-body decoder. /v1/solve and /v1/graphs bodies carry edge
// lists of tens of kilobytes, which encoding/json decodes through
// reflection at ~50 µs/KB: most of an inline request's time outside the
// solve. decodeBody reads the canonical body shape in one pass over the
// bytes, writing integers straight into GraphUpload.Edges, and hands every
// other body to json.Unmarshal. The reader never decides what a body means
// on its own: it either produces exactly what json.Unmarshal would
// (FuzzDecodeMatchesUnmarshal pins this) or declines, so escapes, Unicode
// key folding, options, null and duplicate members need no code here.
//
// The canonical shape:
//
//	{"problem": S, "fingerprint": S, "stream": B, "timeout_ms": I, "graph": G}
//	G = {"n": I, "edges": [[I32, I32], ...]}
//
// with every member optional, members in any order and each at most once,
// JSON whitespace anywhere and nothing but whitespace after the closing
// brace. S is a string of printable ASCII with no escapes, B is true or
// false, I is an integer with no fraction, exponent or leading zero, and
// I32 is such an integer in int32 range. A /v1/graphs body is a bare G.

import (
	"bytes"
	"encoding/json"
	"math"
)

// decodeBody fills v, a *SolveRequest or a *GraphUpload, from a whole
// request body exactly as json.Unmarshal into a zeroed value would,
// trailing bytes after the JSON value included (they are an error).
func decodeBody(body []byte, v any) error {
	r := reader{b: body}
	switch v := v.(type) {
	case *SolveRequest:
		if req, ok := r.solveRequest(); ok && r.end() {
			*v = req
			return nil
		}
		*v = SolveRequest{}
	case *GraphUpload:
		if u, ok := r.graph(); ok && r.end() {
			*v = u
			return nil
		}
		*v = GraphUpload{}
	}
	return json.Unmarshal(body, v)
}

// reader is the one-pass reader of the canonical shape. Each method
// consumes one JSON element, skipping whitespace before it, and returns
// ok=false at the first byte outside the canonical shape; the caller then
// discards everything read and declines.
type reader struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (r *reader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// eat consumes c, after whitespace, if it is the next byte.
func (r *reader) eat(c byte) bool {
	r.ws()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (r *reader) end() bool {
	r.ws()
	return r.i == len(r.b)
}

// object reads an object of at most eight distinct keys, calling member
// with each key once r is positioned at that key's value. member reads
// the value and returns the key's bit, or ok=false to decline. A key seen
// twice declines too: json.Unmarshal decodes a second "graph" into the
// first one's GraphUpload, keeping the fields the second omits.
func (r *reader) object(member func(key []byte) (bit uint8, ok bool)) bool {
	if !r.eat('{') {
		return false
	}
	if r.eat('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := r.str()
		if !ok || !r.eat(':') {
			return false
		}
		bit, ok := member(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if r.eat('}') {
			return true
		}
		if !r.eat(',') {
			return false
		}
	}
}

// str reads a string of printable ASCII with no escapes. The result
// aliases the body.
func (r *reader) str() ([]byte, bool) {
	if !r.eat('"') {
		return nil, false
	}
	for j := r.i; j < len(r.b); j++ {
		switch c := r.b[j]; {
		case c == '"':
			s := r.b[r.i:j]
			r.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// bool reads true or false.
func (r *reader) bool() (bool, bool) {
	r.ws()
	switch rest := r.b[r.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		r.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		r.i += len("false")
		return false, true
	}
	return false, false
}

// int reads an integer of at most 18 digits, so it cannot overflow int64:
// an optional minus sign, then 0 or a digit 1-9 followed by digits. A
// fraction or exponent after the digits is left unread, and the caller's
// next eat declines on it.
func (r *reader) int() (int64, bool) {
	r.ws()
	b, i := r.b, r.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(b) && i-start < 19; i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int64(c)
	}
	r.i = i
	if n := i - start; n == 0 || n > 18 || (n > 1 && b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// solveRequest reads a SolveRequest without options.
func (r *reader) solveRequest() (SolveRequest, bool) {
	var req SolveRequest
	ok := r.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "problem":
			s, ok := r.str()
			req.Problem = string(s)
			return 1, ok
		case "fingerprint":
			s, ok := r.str()
			req.Fingerprint = string(s)
			return 2, ok
		case "stream":
			var ok bool
			req.Stream, ok = r.bool()
			return 4, ok
		case "timeout_ms":
			var ok bool
			req.TimeoutMS, ok = r.int()
			return 8, ok
		case "graph":
			u, ok := r.graph()
			req.Graph = &u
			return 16, ok
		}
		return 0, false
	})
	return req, ok
}

// graph reads a GraphUpload.
func (r *reader) graph() (GraphUpload, bool) {
	var u GraphUpload
	ok := r.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "n":
			// int is 32 bits on some platforms, where json.Unmarshal
			// rejects what does not fit.
			n, ok := r.int()
			u.N = int(n)
			return 1, ok && int64(u.N) == n
		case "edges":
			var ok bool
			u.Edges, ok = r.edges()
			return 2, ok
		}
		return 0, false
	})
	return u, ok
}

// edges reads an edge list of exactly-two-element int32 arrays. The slice
// is allocated once: an edge takes at least six bytes ("[0,0]" and a comma
// or the closing bracket), which bounds the count by what is left of the
// body.
func (r *reader) edges() ([][2]int32, bool) {
	if !r.eat('[') {
		return nil, false
	}
	edges := make([][2]int32, 0, (len(r.b)-r.i)/6)
	if r.eat(']') {
		return edges, true
	}
	for {
		if !r.eat('[') {
			return nil, false
		}
		u, ok := r.int()
		if !ok || !r.eat(',') {
			return nil, false
		}
		v, ok := r.int()
		if !ok || !r.eat(']') || u < math.MinInt32 || u > math.MaxInt32 || v < math.MinInt32 || v > math.MaxInt32 {
			return nil, false
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
		if r.eat(']') {
			return edges, true
		}
		if !r.eat(',') {
			return nil, false
		}
	}
}
