package lint

import (
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// module is the path of the module these tests list.
const module = "repro"

// orphanAllowed lists the internal packages that only tests may import:
// linttest is the analyzer test harness.
var orphanAllowed = []string{"internal/lint/linttest"}

// listedPackage is one package of the module as `go list` reports it.
type listedPackage struct {
	path    string   // import path
	rel     string   // module-relative path, "" for the root package
	hasCode bool     // has non-test Go files
	imports []string // import paths of its non-test files
}

// listModule lists every package of the module with its non-test imports.
func listModule(t *testing.T) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-f", `{{.ImportPath}} {{len .GoFiles}} {{join .Imports " "}}`, module+"/...")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		files, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("go list line %q: %v", line, err)
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(f[0], module), "/")
		pkgs = append(pkgs, listedPackage{path: f[0], rel: rel, hasCode: files > 0, imports: f[2:]})
	}
	return pkgs
}

// TestNoOrphanPackages fails on any internal package with non-test code
// that no entry point reaches through non-test imports. The entry points
// are the module's packages outside internal/: the root package's API, the
// commands and the examples. Only tests can run an unreached package, so
// it is dead code or belongs in a test file. cmd/detbench is a module of
// its own and is not listed; every package it imports is reached from
// here too.
func TestNoOrphanPackages(t *testing.T) {
	pkgs := listModule(t)
	imports := make(map[string][]string, len(pkgs))
	var stack []string
	for _, p := range pkgs {
		imports[p.path] = p.imports
		if !strings.HasPrefix(p.rel, "internal/") {
			stack = append(stack, p.path)
		}
	}
	reached := make(map[string]bool)
	for len(stack) > 0 {
		path := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !reached[path] {
			reached[path] = true
			stack = append(stack, imports[path]...)
		}
	}
	for _, p := range pkgs {
		if p.hasCode && strings.HasPrefix(p.rel, "internal/") && !reached[p.path] && !slices.Contains(orphanAllowed, p.rel) {
			t.Errorf("%s: no command, example or root-package code imports it, directly or through other packages; delete it or move it into the tests that use it", p.rel)
		}
	}
}

// TestScopeEntriesMatchPackages fails on an entry of SolverPackages,
// goroutineExempt or nondetExempt that matches no package of the module,
// so that a deleted or renamed package takes its scope entries with it.
func TestScopeEntriesMatchPackages(t *testing.T) {
	pkgs := listModule(t)
	matches := func(match func(rel string) bool) bool {
		for _, p := range pkgs {
			if match(p.rel) {
				return true
			}
		}
		return false
	}
	for _, e := range SolverPackages {
		if !matches(func(rel string) bool { return rel == e }) {
			t.Errorf("SolverPackages entry %q matches no package", e)
		}
	}
	for _, l := range []struct {
		name    string
		entries []string
	}{{"goroutineExempt", goroutineExempt}, {"nondetExempt", nondetExempt}} {
		for _, e := range l.entries {
			if !matches(func(rel string) bool { return hasAnyPrefix(rel, []string{e}) }) {
				t.Errorf("%s entry %q matches no package", l.name, e)
			}
		}
	}
}
