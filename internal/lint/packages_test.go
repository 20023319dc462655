package lint

import (
	"go/ast"
	"go/types"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/load"
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

// TestNoOrphanFuncs fails on any exported function or method declared in a
// non-test file of an internal package that no non-test code references
// outside the function's own body, neither this module's nor
// cmd/detbench's. cmd/detbench is a module of its own and is loaded as
// one, only to read its references. A method that makes its receiver, or
// a pointer to it, implement an interface declared in a loaded package is
// exempt, since calls through the interface never name it, and so is
// internal/lint/linttest, as in TestNoOrphanPackages. Only tests can call
// an unreferenced function, so it is dead code or belongs in the test file
// that calls it.
func TestNoOrphanFuncs(t *testing.T) {
	mod, err := load.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := load.Load("../../cmd/detbench", "./...")
	if err != nil {
		t.Fatal(err)
	}

	// The candidates: exported functions and methods of internal packages,
	// by key, with their declarations.
	ifaces := interfaces(mod)
	decls := make(map[string]*ast.FuncDecl)
	var keys []string
	for _, p := range mod.Targets() {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.PkgPath, mod.ModulePath), "/")
		if !strings.HasPrefix(rel, "internal/") || slices.Contains(orphanAllowed, rel) {
			continue
		}
		for _, f := range p.Syntax {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					fn := p.TypesInfo.Defs[fd.Name].(*types.Func)
					if !implementsInterface(ifaces, fn) {
						decls[funcKey(fn)] = fd
						keys = append(keys, funcKey(fn))
					}
				}
			}
		}
	}

	// The references: every use of a function in non-test code, outside
	// the used function's own declaration.
	used := make(map[string]bool)
	for _, res := range []*load.Result{mod, bench} {
		for _, p := range res.Targets() {
			for id, obj := range p.TypesInfo.Uses {
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				k := funcKey(fn.Origin())
				if d := decls[k]; res == mod && d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
					continue
				}
				used[k] = true
			}
		}
	}

	slices.Sort(keys)
	for _, k := range keys {
		if !used[k] {
			t.Errorf("%s: no non-test code in this module or cmd/detbench references it; delete it or move it into the tests that use it", k)
		}
	}
}

// funcKey names a function or method across separate loads, whose
// types.Objects differ: its package path, its receiver's type name for a
// method, and its name. Methods of unnamed interfaces, and the universe's
// error.Error, keep go/types' own name; no candidate has one.
func funcKey(fn *types.Func) string {
	if named := recvNamed(fn); named != nil && fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.FullName()
}

// recvNamed returns the named type of fn's receiver, through a pointer, or
// nil when fn is a function or a method of an unnamed interface.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// interfaces returns the interfaces declared in the packages of res that
// a method can implement (method sets, not generic), and the predeclared
// error.
func interfaces(res *load.Result) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, p := range res.Packages {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !types.IsInterface(tn.Type()) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if iface := tn.Type().Underlying().(*types.Interface); iface.IsMethodSet() {
				out = append(out, iface)
			}
		}
	}
	return out
}

// implementsInterface reports whether fn is a method that makes its
// non-generic receiver type, or a pointer to it, implement one of ifaces
// that has a method of fn's name.
func implementsInterface(ifaces []*types.Interface, fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(iface, false, fn.Pkg(), fn.Name()); m == nil {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
