// Package floatfold flags floating-point accumulation into captured
// variables inside function literals handed to internal/parallel entry
// points. Float addition and multiplication are not associative: a
// shard body that does `sum += w` on a variable captured from the
// enclosing scope folds in goroutine completion order, so the result
// drifts with the worker count even though each shard's arithmetic is
// exact — the PR 8 sparsify carry bug class. The deterministic pattern
// is a per-shard partial written to disjoint state (out[shard] = ...)
// folded in shard order afterwards, which this analyzer deliberately
// does not flag (indexed stores are the sanctioned discipline). Escape
// with
//
//	//det:allow floatfold <reason>
package floatfold

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "floatfold",
	Doc:  "flag float += / *= on captured variables inside closures passed to internal/parallel",
	Run:  run,
}

// parallelPathSuffix identifies the worker-pool package in any module.
const parallelPathSuffix = "internal/parallel"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParallelEntry(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				checkShardBody(pass, lit)
			}
			return true
		})
	}
	return nil
}

// isParallelEntry reports whether call invokes an exported function of
// internal/parallel (For, ForEach, MapReduce, MaxInt).
func isParallelEntry(pass *analysis.Pass, call *ast.CallExpr) bool {
	fun := call.Fun
	if idx, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation: parallel.MapReduce[T]
		fun = idx.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == parallelPathSuffix || strings.HasSuffix(p, "/"+parallelPathSuffix)
}

// checkShardBody walks one shard closure and reports float compound
// assignments whose target is captured from outside the closure.
func checkShardBody(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return true // nested closures inherit the same capture test
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		case token.ASSIGN:
			// x = x + w spelled long-hand is the same fold.
			if len(as.Lhs) == 1 && len(as.Rhs) == 1 && selfAccumulates(pass, as.Lhs[0], as.Rhs[0]) {
				break
			}
			return true
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			if !isFloat(pass, lhs) {
				continue
			}
			root := rootIdent(lhs)
			if root == nil {
				continue // indexed stores (out[shard] += x) are the sanctioned per-shard pattern
			}
			obj, ok := pass.TypesInfo.ObjectOf(root).(*types.Var)
			if !ok {
				continue
			}
			if capturedBy(lit, obj) {
				pass.Reportf(as.Pos(), "float accumulation into captured %s inside a parallel shard body: folds run in completion order, so the result depends on the worker count; write per-shard partials to disjoint state and reduce in shard order", root.Name)
			}
		}
		return true
	})
}

// selfAccumulates reports whether rhs is a +/- or * expression reading
// lhs (so `x = x + y` counts as accumulation).
func selfAccumulates(pass *analysis.Pass, lhs, rhs ast.Expr) bool {
	bin, ok := rhs.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL:
	default:
		return false
	}
	root := rootIdent(lhs)
	if root == nil {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(root)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// rootIdent returns the base identifier of a plain ident or selector
// chain lvalue; nil for indexed or dereferenced targets.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// capturedBy reports whether obj is declared outside lit (and is not
// package-scoped — a package-level float accumulator written from a
// shard would be a data race the race detector owns).
func capturedBy(lit *ast.FuncLit, obj *types.Var) bool {
	if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
		return false // package-level
	}
	pos := obj.Pos()
	return pos < lit.Pos() || pos > lit.End()
}
