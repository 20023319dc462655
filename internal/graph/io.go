package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses the plain edge-list format of the CLI tools: a header
// line "n m", then one "u v" line per edge.
// Lines starting with '#' or '%' and blank lines are ignored (so DIMACS-ish
// and SNAP-style comment headers pass through). The first data line must be
// "n" or "n m"; every following data line is an edge "u v". Duplicate edges
// and self loops are dropped, matching the Builder semantics. Node ids must
// lie in [0, n), and n may be at most 1<<31, the number of ids NodeID can
// address.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var b *Builder
	n := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if n < 0 {
			if len(fields) < 1 || len(fields) > 2 {
				return nil, fmt.Errorf("graph: line %d: header must be \"n\" or \"n m\"", line)
			}
			v, err := strconv.Atoi(fields[0])
			if err != nil || v < 0 || int64(v) > 1<<31 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[0])
			}
			n = v
			b = NewBuilder(n)
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: edge must be \"u v\"", line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad endpoint %q", line, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad endpoint %q", line, fields[1])
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: line %d: endpoint out of range [0,%d)", line, n)
		}
		b.AddEdge(NodeID(u), NodeID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: empty input (missing header)")
	}
	return b.Build(), nil
}
