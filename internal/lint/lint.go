// Package lint wires the detlint analyzer suite together: which
// analyzers run on which packages (the scope table mirrors the standing
// invariants in doc.go), how //det:allow directives suppress individual
// diagnostics, and how malformed or unused directives become
// diagnostics themselves. cmd/detlint is a thin driver over Run;
// internal/lint/linttest runs single analyzers through the same
// suppression path so fixtures exercise exactly what ships.
package lint

import (
	"cmp"
	"fmt"
	"go/token"
	"slices"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analyzers/floatfold"
	"repro/internal/lint/analyzers/hotalloc"
	"repro/internal/lint/analyzers/nogoroutine"
	"repro/internal/lint/analyzers/nomaprange"
	"repro/internal/lint/analyzers/nondetsource"
	"repro/internal/lint/directive"
	"repro/internal/lint/load"
)

// Analyzers is the full suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	nogoroutine.Analyzer,
	nomaprange.Analyzer,
	nondetsource.Analyzer,
	floatfold.Analyzer,
	hotalloc.Analyzer,
}

// SolverPackages are the module-relative package paths bound by the
// full determinism contract: no map-range iteration order, no
// nondeterministic inputs (math/rand, wall clock, environment). The
// list is additive — a new solver package joins the contract by being
// added here.
var SolverPackages = []string{
	"internal/core",
	"internal/condexp",
	"internal/sparsify",
	"internal/matching",
	"internal/mis",
	"internal/lowdeg",
	"internal/luby",
	"internal/graph",
	"internal/hashfam",
	"internal/mpc",
	"internal/coloring",
	"internal/cclique",
}

// goroutineExempt lists the module-relative path prefixes where raw
// goroutines are legitimate: the deterministic worker pool itself, the
// serving layer (whose concurrency is the product), and the runnable
// entry points.
var goroutineExempt = []string{
	"internal/parallel",
	"internal/serve",
	"cmd/",
	"examples/",
}

// nondetExempt lists the module-relative path prefixes exempt from the
// solver-scope nondeterminism bans (the repo-wide unstable-sort ban
// still applies): detrand is the sanctioned randomness source, and the
// serving layer and entry points legitimately read clocks and the
// environment.
var nondetExempt = []string{
	"internal/detrand",
	"internal/serve",
	"cmd/",
	"examples/",
}

// Scope says which analyzers apply to one package.
type Scope struct {
	// Relative is the module-relative package path ("" for the module
	// root package).
	Relative string
	// Solver marks membership in SolverPackages.
	Solver bool
	// Analyzers to run, in suite order.
	Analyzers []*analysis.Analyzer
}

// ScopeFor computes the analyzer set for a package path given the
// module path.
func ScopeFor(modulePath, pkgPath string) Scope {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, modulePath), "/")
	s := Scope{Relative: rel, Solver: isSolver(rel)}
	for _, a := range Analyzers {
		switch a {
		case nogoroutine.Analyzer:
			if hasAnyPrefix(rel, goroutineExempt) {
				continue
			}
		case nomaprange.Analyzer:
			if !s.Solver {
				continue
			}
		case nondetsource.Analyzer:
			// Runs everywhere: the unstable-sort ban is repo-wide. The
			// solver-only source bans are gated by Pass.InSolverScope.
		case floatfold.Analyzer:
			if rel == "internal/parallel" {
				continue
			}
		case hotalloc.Analyzer:
			// Runs everywhere; it only fires inside //det:hotpath funcs.
		}
		s.Analyzers = append(s.Analyzers, a)
	}
	return s
}

func isSolver(rel string) bool {
	for _, p := range SolverPackages {
		if rel == p {
			return true
		}
	}
	return false
}

func hasAnyPrefix(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if rel == strings.TrimSuffix(p, "/") || strings.HasPrefix(rel, p) {
			return true
		}
	}
	return false
}

// solverScopeFor reports whether nondetsource's solver-only bans apply.
func solverScopeFor(s Scope) bool {
	return s.Solver && !hasAnyPrefix(s.Relative, nondetExempt)
}

// Run executes the scoped analyzer suite plus directive validation on
// one loaded package and returns the surviving diagnostics in source
// order. Diagnostics on lines covered by a matching //det:allow are
// dropped; allow directives that suppress nothing, name an unknown
// analyzer, or are malformed come back as diagnostics from the
// pseudo-analyzer "detdirective".
func Run(res *load.Result, pkg *load.Package) []analysis.Diagnostic {
	scope := ScopeFor(res.ModulePath, pkg.PkgPath)
	return runScoped(pkg, scope.Analyzers, solverScopeFor(scope))
}

// RunOne executes a single analyzer (plus the directive machinery
// restricted to that analyzer's suppressions) on a package. linttest
// uses it so fixture runs share the production suppression path.
func RunOne(pkg *load.Package, a *analysis.Analyzer, inSolverScope bool) []analysis.Diagnostic {
	return runScoped(pkg, []*analysis.Analyzer{a}, inSolverScope)
}

func runScoped(pkg *load.Package, analyzers []*analysis.Analyzer, inSolverScope bool) []analysis.Diagnostic {
	var raw []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:      a,
			Fset:          pkg.Fset,
			Files:         pkg.Syntax,
			Pkg:           pkg.Types,
			TypesInfo:     pkg.TypesInfo,
			InSolverScope: inSolverScope,
			Report:        func(d analysis.Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			raw = append(raw, analysis.Diagnostic{
				Pos:      pkg.Syntax[0].Pos(),
				Message:  fmt.Sprintf("analyzer failed: %v", err),
				Analyzer: a.Name,
			})
		}
	}

	known := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	running := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		running[a.Name] = true
	}

	var out []analysis.Diagnostic
	used := make(map[token.Pos]bool)
	var allows []directive.Directive
	for i, file := range pkg.Syntax {
		df := directive.ParseFile(pkg.Fset, file, pkg.Src[pkg.GoFiles[i]])
		allows = append(allows, df.Allows...)
		for _, p := range df.Problems {
			out = append(out, analysis.Diagnostic{Pos: p.Pos, Message: p.Message, Analyzer: "detdirective"})
		}
		for _, d := range df.Allows {
			if !known[d.Analyzer] {
				out = append(out, analysis.Diagnostic{
					Pos:      d.Pos,
					Message:  fmt.Sprintf("//det:allow names unknown analyzer %q (known: %s)", d.Analyzer, knownNames()),
					Analyzer: "detdirective",
				})
			}
		}
	}

	for _, d := range raw {
		line := pkg.Fset.Position(d.Pos).Line
		file := pkg.Fset.File(d.Pos)
		suppressed := false
		for _, a := range allows {
			if a.Analyzer != d.Analyzer || a.Line != line {
				continue
			}
			if af := pkg.Fset.File(a.Pos); af == nil || file == nil || af.Name() != file.Name() {
				continue
			}
			suppressed = true
			used[a.Pos] = true
		}
		if !suppressed {
			out = append(out, d)
		}
	}

	// An allow that suppressed nothing is itself a finding: either the
	// violation it excused is gone (delete the directive) or it is
	// misplaced and excusing nothing (fix the position). Only judged for
	// analyzers that actually ran here, so a single-analyzer fixture run
	// does not misreport another analyzer's directives.
	for _, a := range allows {
		if !used[a.Pos] && known[a.Analyzer] && running[a.Analyzer] {
			out = append(out, analysis.Diagnostic{
				Pos:      a.Pos,
				Message:  fmt.Sprintf("unused //det:allow %s: no %s diagnostic on the covered line; delete the directive or fix its position", a.Analyzer, a.Analyzer),
				Analyzer: "detdirective",
			})
		}
	}

	slices.SortStableFunc(out, func(a, b analysis.Diagnostic) int { return cmp.Compare(a.Pos, b.Pos) })
	return out
}

func knownNames() string {
	names := make([]string, len(Analyzers))
	for i, a := range Analyzers {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}
