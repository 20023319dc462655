package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d, want %d,%d", h.N(), h.M(), g.N(), g.M())
	}
	ea, eb := g.Edges(), h.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	input := `# a comment
% another style

4 3
0 1

2 3
# trailing comment
1 2
`
	g, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Errorf("n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListHeaderOnly(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 || g.M() != 0 {
		t.Errorf("n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "x y z\n",
		"negative n":     "-3\n",
		"bad edge arity": "4\n1 2 3\n",
		"bad endpoint":   "4\n1 x\n",
		"out of range":   "4\n1 9\n",
		// Node counts NodeID cannot address, each with an edge whose id is
		// at least 2^31, which int32 would wrap negative.
		"n above 2^32": "4294967296\n4294967295 0\n",
		"n above 2^31": "2147483649\n2147483648 1\n",
	}
	for name, input := range cases {
		if _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

func TestReadEdgeListDropsDuplicatesAndLoops(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("3\n0 1\n1 0\n2 2\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Errorf("m = %d, want 1", g.M())
	}
}

// WriteEdgeList writes g in the plain edge-list format ReadEdgeList parses:
// a header line "n m", then one "u v" line per canonical edge.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}
