// Package ctxloop defines an analyzer enforcing the cancellation contract
// on experiment drivers: a function that accepts a context must give that
// context a way to stop its loops.
//
// Two shapes are flagged:
//
//   - an unbounded loop (`for {}` or `for cond {}`) whose body never
//     consults the context — cancellation can never interrupt it, and
//   - a function that receives a context it never consults or forwards at
//     all while running per-item loops that do real work — every caller's
//     cancel is silently ignored for the whole sweep.
//
// Passing ctx into a callee (tester.WithContext(ctx), pool.Run(ctx, ...))
// counts as consulting it: cancellation then propagates through the
// callee. This is the static side of the PR 1 contract that `rhvpp`
// shards exit promptly and artifact-free on SIGINT/SIGTERM.
package ctxloop

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"github.com/dramstudy/rhvpp/internal/analysis/detlint"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxloop",
	Doc: "flags loops in context-taking functions that can never observe cancellation " +
		"(unbounded loops ignoring ctx; functions that drop their ctx while looping over work)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	rep := detlint.NewReporter(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var ftype *ast.FuncType
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			ftype, body = fn.Type, fn.Body
		case *ast.FuncLit:
			ftype, body = fn.Type, fn.Body
		}
		if body == nil {
			return
		}
		ctxObj, has := ctxParam(pass.TypesInfo, ftype)
		if !has {
			return
		}
		checkFunc(pass, rep, ctxObj, body)
	})
	return nil, nil
}

// ctxParam finds a context.Context parameter. ctxObj is nil when the
// parameter is unnamed or blank (it can never be consulted).
func ctxParam(info *types.Info, ftype *ast.FuncType) (ctxObj types.Object, has bool) {
	if ftype.Params == nil {
		return nil, false
	}
	for _, field := range ftype.Params.List {
		if !isContextType(info.TypeOf(field.Type)) {
			continue
		}
		has = true
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if obj := info.Defs[name]; obj != nil {
				return obj, true
			}
		}
	}
	return nil, has
}

func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// checkFunc inspects one function body (not descending into nested
// function literals' own loops, which are their own scopes).
func checkFunc(pass *analysis.Pass, rep *detlint.Reporter, ctxObj types.Object, body *ast.BlockStmt) {
	ctxUsed := ctxObj != nil && detlint.UsesObject(pass.TypesInfo, body, ctxObj)
	var firstWorkLoop ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its loops answer to its own (or captured) ctx scope
		case *ast.ForStmt:
			if unbounded(n) && !consultsCtx(pass.TypesInfo, n.Body, ctxObj) {
				rep.Reportf(n.Pos(), "unbounded loop in a context-taking function never consults the context; add a ctx.Err() check or a ctx.Done() select so cancellation can stop it")
				return true // already reported; don't double up as a dropped-ctx work loop
			}
			if firstWorkLoop == nil && loopDoesWork(n.Body) {
				firstWorkLoop = n
			}
		case *ast.RangeStmt:
			if isChan(pass.TypesInfo.TypeOf(n.X)) {
				return true // channel ranges end when the producer stops
			}
			if firstWorkLoop == nil && loopDoesWork(n.Body) {
				firstWorkLoop = n
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	if !ctxUsed && firstWorkLoop != nil {
		rep.Reportf(firstWorkLoop.Pos(), "function receives a context it never consults or forwards, so this per-item loop can never observe cancellation; check ctx.Err() per iteration or pass ctx to the per-item work")
	}
}

// unbounded recognizes `for {}` and while-style `for cond {}` loops: no
// iteration variable marches toward completion.
func unbounded(f *ast.ForStmt) bool {
	return f.Cond == nil || (f.Init == nil && f.Post == nil)
}

// consultsCtx reports whether the loop body references the context
// (ctx.Err(), ctx.Done(), or passing ctx onward all count).
func consultsCtx(info *types.Info, body *ast.BlockStmt, ctxObj types.Object) bool {
	return ctxObj != nil && detlint.UsesObject(info, body, ctxObj)
}

// loopDoesWork reports whether the loop body contains any call — the
// proxy for per-item work worth cancelling.
func loopDoesWork(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// isChan reports whether t is a channel type.
func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Chan)
	return ok
}
