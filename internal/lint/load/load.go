// Package load parses and type-checks Go packages for detlint without
// depending on golang.org/x/tools/go/packages. It shells out to
// `go list -e -deps -json` for build-context-correct file lists and
// import maps, then parses and type-checks every listed package in the
// dependency order go list guarantees (a package appears only after
// all of its dependencies), resolving imports from the packages checked
// so far. Standard-library and dep-only packages are checked with
// IgnoreFuncBodies, so the full-body work is paid only for the packages
// under analysis.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one parsed, type-checked package.
type Package struct {
	PkgPath  string
	Name     string
	Dir      string
	GoFiles  []string // absolute paths, build-context filtered
	Standard bool     // part of the standard library
	DepOnly  bool     // reached only as a dependency, not named by the patterns
	Module   string   // module path, "" for std

	Fset      *token.FileSet
	Syntax    []*ast.File
	Src       map[string][]byte // file path -> source bytes
	Types     *types.Package
	TypesInfo *types.Info

	importMap map[string]string // source import path -> resolved package path
	typeErrs  []error           // dep-only packages may keep some; targets must check clean
}

// Result is the outcome of one Load call.
type Result struct {
	Fset       *token.FileSet
	Packages   []*Package // dependency order; targets have DepOnly == false
	ModulePath string
	byPath     map[string]*Package
}

// Targets returns the packages named by the Load patterns, in load order.
func (r *Result) Targets() []*Package {
	var out []*Package
	for _, p := range r.Packages {
		if !p.DepOnly && !p.Standard {
			out = append(out, p)
		}
	}
	return out
}

// listJSON mirrors the subset of `go list -json` output we consume.
type listJSON struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Incomplete bool
	Module     *struct {
		Path string
	}
	Error *struct {
		Err string
	}
}

// Load lists patterns (plus their full dependency closure) from dir and
// type-checks everything. The build context is the host context with
// CGO_ENABLED=0, so the closure stays pure Go and checkable from source.
func Load(dir string, patterns ...string) (*Result, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	res := &Result{
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listJSON
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Error != nil && !lp.DepOnly {
			return nil, fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := check(res, &lp)
		if err != nil {
			return nil, err
		}
		res.Packages = append(res.Packages, pkg)
		res.byPath[pkg.PkgPath] = pkg
		if !pkg.DepOnly && !pkg.Standard && res.ModulePath == "" {
			res.ModulePath = pkg.Module
		}
	}
	return res, nil
}

// check parses and type-checks one listed package. Its dependencies are
// already in res.byPath because go list -deps emits dependency order.
func check(res *Result, lp *listJSON) (*Package, error) {
	pkg := &Package{
		PkgPath:   lp.ImportPath,
		Name:      lp.Name,
		Dir:       lp.Dir,
		Standard:  lp.Standard,
		DepOnly:   lp.DepOnly,
		Fset:      res.Fset,
		Src:       make(map[string][]byte),
		importMap: lp.ImportMap,
	}
	if lp.Module != nil {
		pkg.Module = lp.Module.Path
	}
	if lp.ImportPath == "unsafe" {
		pkg.Types = types.Unsafe
		return pkg, nil
	}
	for _, f := range lp.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(lp.Dir, f)
		}
		pkg.GoFiles = append(pkg.GoFiles, f)
	}
	for _, path := range pkg.GoFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("package %s: %v", pkg.PkgPath, err)
		}
		file, err := parser.ParseFile(res.Fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("package %s: %v", pkg.PkgPath, err)
		}
		pkg.Src[path] = src
		pkg.Syntax = append(pkg.Syntax, file)
	}

	full := !pkg.DepOnly && !pkg.Standard
	pkg.TypesInfo = NewInfo()
	conf := types.Config{
		Importer:         &resolver{res: res, importMap: lp.ImportMap},
		IgnoreFuncBodies: !full,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			pkg.typeErrs = append(pkg.typeErrs, err)
		},
	}
	tpkg, err := conf.Check(pkg.PkgPath, res.Fset, pkg.Syntax, pkg.TypesInfo)
	pkg.Types = tpkg
	if full && len(pkg.typeErrs) > 0 {
		return nil, fmt.Errorf("package %s: type checking failed: %v", pkg.PkgPath, errors.Join(pkg.typeErrs...))
	}
	_ = err // folded into typeErrs by conf.Error
	return pkg, nil
}

// CheckFiles parses and fully type-checks an ad-hoc package (detlint's
// test fixtures, which live under testdata and are invisible to go
// list) against an already-loaded Result: imports resolve to the
// universe's packages, so a fixture may import both std packages and
// module packages that res covers.
func CheckFiles(res *Result, pkgPath string, files []string) (*Package, error) {
	pkg := &Package{
		PkgPath: pkgPath,
		GoFiles: files,
		Fset:    res.Fset,
		Src:     make(map[string][]byte),
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(res.Fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Src[path] = src
		pkg.Syntax = append(pkg.Syntax, file)
	}
	pkg.TypesInfo = NewInfo()
	conf := types.Config{
		Importer: &resolver{res: res},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			pkg.typeErrs = append(pkg.typeErrs, err)
		},
	}
	tpkg, _ := conf.Check(pkgPath, res.Fset, pkg.Syntax, pkg.TypesInfo)
	pkg.Types = tpkg
	if len(pkg.typeErrs) > 0 {
		return nil, fmt.Errorf("package %s: type checking failed: %v", pkgPath, errors.Join(pkg.typeErrs...))
	}
	return pkg, nil
}

// NewInfo allocates a types.Info with every map detlint's analyzers
// consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// resolver resolves one package's imports against the packages checked
// so far, honoring go list's per-package ImportMap (std vendoring).
type resolver struct {
	res       *Result
	importMap map[string]string
}

func (r *resolver) Import(path string) (*types.Package, error) {
	if mapped, ok := r.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := r.res.byPath[path]; p != nil && p.Types != nil {
		return p.Types, nil
	}
	return nil, fmt.Errorf("import %q not in dependency closure", path)
}
