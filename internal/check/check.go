// Package check provides the correctness validators used by tests, examples
// and the experiment harness: matching validity and maximality, independent
// set validity and maximality. All validators run against the original input
// graph, so they catch any bookkeeping error the iterative algorithms might
// make while shrinking their working copies.
package check

import (
	"fmt"

	"repro/internal/graph"
)

// IsMatching reports whether edges form a matching of g: every edge present
// in g and no two edges sharing an endpoint. A descriptive reason is
// returned on failure, also for an endpoint outside g's node range.
func IsMatching(g *graph.Graph, edges []graph.Edge) (bool, string) {
	used := make([]bool, g.N())
	for _, e := range edges {
		if int(e.U) < 0 || int(e.U) >= g.N() || int(e.V) < 0 || int(e.V) >= g.N() {
			return false, fmt.Sprintf("edge %v has an endpoint out of range", e)
		}
		if !g.HasEdge(e.U, e.V) {
			return false, fmt.Sprintf("edge %v not in graph", e)
		}
		if used[e.U] {
			return false, fmt.Sprintf("node %d matched twice", e.U)
		}
		if used[e.V] {
			return false, fmt.Sprintf("node %d matched twice", e.V)
		}
		used[e.U] = true
		used[e.V] = true
	}
	return true, ""
}

// IsMaximalMatching reports whether edges form a maximal matching of g:
// a matching such that every edge of g has a matched endpoint.
func IsMaximalMatching(g *graph.Graph, edges []graph.Edge) (bool, string) {
	ok, reason := IsMatching(g, edges)
	if !ok {
		return false, reason
	}
	matched := make([]bool, g.N())
	for _, e := range edges {
		matched[e.U] = true
		matched[e.V] = true
	}
	for u := 0; u < g.N(); u++ {
		if matched[u] {
			continue
		}
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if !matched[v] {
				return false, fmt.Sprintf("edge {%d,%d} could be added", u, v)
			}
		}
	}
	return true, ""
}

// IsIndependentSet reports whether nodes form an independent set of g.
func IsIndependentSet(g *graph.Graph, nodes []graph.NodeID) (bool, string) {
	in := make([]bool, g.N())
	for _, v := range nodes {
		if int(v) < 0 || int(v) >= g.N() {
			return false, fmt.Sprintf("node %d out of range", v)
		}
		if in[v] {
			return false, fmt.Sprintf("node %d listed twice", v)
		}
		in[v] = true
	}
	for _, v := range nodes {
		for _, u := range g.Neighbors(v) {
			if in[u] {
				return false, fmt.Sprintf("adjacent nodes %d and %d both in set", v, u)
			}
		}
	}
	return true, ""
}

// IsMaximalIS reports whether nodes form a maximal independent set of g:
// independent, and every node outside has a neighbour inside.
func IsMaximalIS(g *graph.Graph, nodes []graph.NodeID) (bool, string) {
	ok, reason := IsIndependentSet(g, nodes)
	if !ok {
		return false, reason
	}
	in := make([]bool, g.N())
	for _, v := range nodes {
		in[v] = true
	}
	for v := 0; v < g.N(); v++ {
		if in[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if in[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false, fmt.Sprintf("node %d could be added", v)
		}
	}
	return true, ""
}
