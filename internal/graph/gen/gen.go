// Package gen provides the deterministic workload generators used by the
// experiment harness: classical random graph models seeded through
// internal/detrand plus the structured families (grids, stars, trees) that
// exercise the algorithms' edge cases. Every generator is a pure function of
// its arguments, so experiment tables are exactly reproducible.
package gen

import (
	"fmt"
	"math"

	"repro/internal/detrand"
	"repro/internal/graph"
)

func pow(x, y float64) float64 { return math.Pow(x, y) }
func log1p(x float64) float64  { return math.Log1p(x) }

// GNM returns a uniform random simple graph with n nodes and (up to) m
// distinct edges, sampled by rejection. m is clamped to n(n-1)/2.
func GNM(n, m int, seed uint64) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	r := detrand.New(seed)
	type key struct{ u, v int32 }
	seen := make(map[key]struct{}, m)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := key{u, v}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.FromEdges(n, edges)
}

// GNP returns an Erdős–Rényi G(n,p) graph. Suitable for modest n (it visits
// all pairs via geometric skipping, O(n + m) expected time).
func GNP(n int, p float64, seed uint64) *graph.Graph {
	if p <= 0 {
		return graph.Empty(n)
	}
	if p >= 1 {
		return Complete(n)
	}
	r := detrand.New(seed)
	var edges []graph.Edge
	// Skip-sampling over the linearised upper triangle.
	total := int64(n) * int64(n-1) / 2
	pos := int64(-1)
	for {
		// Geometric(p) skip: number of failures before next success.
		u01 := r.Float64()
		if u01 >= 1 {
			u01 = 0.9999999999
		}
		skip := int64(logOneMinus(u01) / logOneMinus(p))
		pos += skip + 1
		if pos >= total {
			break
		}
		u, v := unrank(pos, n)
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.FromEdges(n, edges)
}

// logOneMinus returns ln(1-x) for x in [0,1).
func logOneMinus(x float64) float64 {
	// ln(1-x) via the standard library would import math; a tiny series is
	// not acceptable for accuracy, so use the identity with math.Log1p.
	return log1p(-x)
}

// unrank maps a linear index over the upper triangle to the pair (u,v).
func unrank(pos int64, n int) (int32, int32) {
	// Row u contributes n-1-u entries; find u by walking (fast enough since
	// generation cost is dominated by m anyway), then v.
	u := int64(0)
	rowLen := int64(n - 1)
	for pos >= rowLen {
		pos -= rowLen
		u++
		rowLen--
	}
	return int32(u), int32(u + 1 + pos)
}

// PowerLaw returns a Chung–Lu style power-law graph: node v gets weight
// w_v ∝ (v+1)^(-1/(beta-1)) scaled so the expected edge count is about m,
// and each candidate edge is included with probability min(1, w_u·w_v/W).
// beta around 2.5 mimics social-network degree distributions (the workloads
// the paper's introduction motivates).
func PowerLaw(n, m int, beta float64, seed uint64) *graph.Graph {
	if beta <= 1 {
		panic("gen: PowerLaw requires beta > 1")
	}
	r := detrand.New(seed)
	weights := make([]float64, n)
	totalW := 0.0
	for v := range weights {
		weights[v] = pow(float64(v+1), -1/(beta-1))
		totalW += weights[v]
	}
	// Scale weights so that sum of expected degrees ~ 2m.
	scale := float64(2*m) / totalW
	for v := range weights {
		weights[v] *= scale
	}
	sumW := 0.0
	for _, w := range weights {
		sumW += w
	}
	// Sample by drawing endpoints proportional to weight (alias-free:
	// inverse CDF on a prefix table), then accepting distinct pairs.
	prefix := make([]float64, n+1)
	for v := 0; v < n; v++ {
		prefix[v+1] = prefix[v] + weights[v]
	}
	draw := func() int32 {
		x := r.Float64() * sumW
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if prefix[mid+1] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= n {
			lo = n - 1
		}
		return int32(lo)
	}
	type key struct{ u, v int32 }
	seen := make(map[key]struct{}, m)
	edges := make([]graph.Edge, 0, m)
	attempts := 0
	for len(edges) < m && attempts < 50*m+1000 {
		attempts++
		u, v := draw(), draw()
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := key{u, v}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.FromEdges(n, edges)
}

// RandomRegular returns a (near-)d-regular graph via the permutation model:
// d/2 random perfect matchings over 2 copies are approximated by stacking d
// random permutations and dropping collisions, so a few nodes may have
// degree slightly below d. d*n must be even-ish but is not required.
func RandomRegular(n, d int, seed uint64) *graph.Graph {
	if d >= n {
		d = n - 1
	}
	r := detrand.New(seed)
	type key struct{ u, v int32 }
	seen := make(map[key]struct{}, n*d/2)
	edges := make([]graph.Edge, 0, n*d/2)
	add := func(u, v int32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		k := key{u, v}
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	for rep := 0; rep < (d+1)/2; rep++ {
		perm := r.Perm(n)
		for i := 0; i < n; i++ {
			add(int32(i), int32(perm[i]))
		}
	}
	return graph.FromEdges(n, edges)
}

// Grid2D returns the rows×cols grid graph (Δ = 4), a natural low-degree
// workload for the Section 5 algorithm.
func Grid2D(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Complete returns K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b} with the left part on ids [0,a).
func CompleteBipartite(a, b int) *graph.Graph {
	bl := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bl.AddEdge(int32(u), int32(a+v))
		}
	}
	return bl.Build()
}

// Star returns the star K_{1,n-1} with centre 0 — the worst case for degree
// skew (one node in the top degree class, all others in the bottom).
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, int32(v))
	}
	return b.Build()
}

// Path returns the path P_n.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	return b.Build()
}

// Cycle returns the cycle C_n.
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	if n > 2 {
		b.AddEdge(int32(n-1), 0)
	}
	return b.Build()
}

// RandomTree returns a uniformly random labelled tree (Prüfer-free: random
// attachment), Δ typically O(log n / log log n).
func RandomTree(n int, seed uint64) *graph.Graph {
	r := detrand.New(seed)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v), int32(r.Intn(v)))
	}
	return b.Build()
}

// Caterpillar returns a path of length spineLen with legs legs per spine
// node; with many legs it concentrates mass in the low-degree classes while
// keeping spine nodes heavy, exercising the class-selection logic.
func Caterpillar(spineLen, legs int) *graph.Graph {
	n := spineLen * (1 + legs)
	b := graph.NewBuilder(n)
	for s := 0; s+1 < spineLen; s++ {
		b.AddEdge(int32(s), int32(s+1))
	}
	next := spineLen
	for s := 0; s < spineLen; s++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(int32(s), int32(next))
			next++
		}
	}
	return b.Build()
}

// ByName returns a generator selected by name with a default parameterisation
// around n nodes and avgDeg average degree. It is the dispatch used by the
// CLI tools. Unknown names return an error.
func ByName(name string, n, avgDeg int, seed uint64) (*graph.Graph, error) {
	switch name {
	case "gnm":
		return GNM(n, n*avgDeg/2, seed), nil
	case "gnp":
		p := float64(avgDeg) / float64(n-1)
		return GNP(n, p, seed), nil
	case "powerlaw":
		return PowerLaw(n, n*avgDeg/2, 2.5, seed), nil
	case "regular":
		return RandomRegular(n, avgDeg, seed), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return Grid2D(side, side), nil
	case "complete":
		return Complete(n), nil
	case "star":
		return Star(n), nil
	case "path":
		return Path(n), nil
	case "cycle":
		return Cycle(n), nil
	case "tree":
		return RandomTree(n, seed), nil
	case "caterpillar":
		return Caterpillar(n/9, 8), nil
	case "bipartite":
		return CompleteBipartite(n/2, n-n/2), nil
	default:
		return nil, fmt.Errorf("gen: unknown graph family %q", name)
	}
}
