// Package sinkerr defines an analyzer that flags silently lost errors on
// the shard-protocol and artifact I/O paths.
//
// Sharded campaigns survive only if every serialization failure surfaces:
// a swallowed Encode, Write, Close, or Rename error turns a broken shard
// artifact into a silently truncated campaign when MergeArtifacts folds
// it. The analyzer tracks calls into error-critical packages — the
// artifact envelope codec and the I/O layers it rides on (encoding/json,
// encoding/csv, os, io, bufio) — and reports three ways their error
// results get lost:
//
//   - discarded outright: the call is an expression statement, so the
//     error is never bound (enc.Encode(v) on a line of its own);
//   - blanked: the error result is assigned to _ (including n, _ :=
//     w.Write(p));
//   - deferred: defer f.Close() discards whatever Close returns, which on
//     buffered write paths is where short writes finally report.
//
// It also detects shadowing in straight-line code via the control-flow
// graph: an error assigned from a critical call and then overwritten —
// with no read in between, within one basic block — loses the first
// failure even though the variable itself is "used" (the classic
// err := Encode(a); err = Encode(b) slip). Reads in later blocks keep a
// pending error alive, so the check never crosses a branch.
//
// Deliberate discards take a reasoned suppression, e.g.
//
//	defer fh.Close() //detlint:ignore sinkerr read-only descriptor, close error carries no data
package sinkerr

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"github.com/dramstudy/rhvpp/internal/analysis/detlint"
)

var Analyzer = &analysis.Analyzer{
	Name: "sinkerr",
	Doc: "flags discarded, blanked, deferred-away, and shadowed error results from shard-protocol " +
		"and artifact I/O calls (encoding/json, encoding/csv, os, io, bufio, internal artifact packages)",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

// paths lists the error-critical packages. An entry with a slash matches
// the import path exactly; a bare name matches any package whose path base
// is that name (so "artifact" covers the module's internal/artifact, and
// fixtures can model critical packages by directory name).
const paths = "encoding/json,encoding/csv,os,io,bufio,artifact"

var errorType = types.Universe.Lookup("error").Type()

func run(pass *analysis.Pass) (any, error) {
	exact := make(map[string]bool)
	base := make(map[string]bool)
	for _, e := range strings.Split(paths, ",") {
		if e = strings.TrimSpace(e); e == "" {
			continue
		}
		if strings.Contains(e, "/") {
			exact[e] = true
		} else {
			base[e] = true
		}
	}
	critical := func(path string) bool {
		if exact[path] || base[path] {
			return true
		}
		if i := strings.LastIndexByte(path, '/'); i >= 0 && base[path[i+1:]] {
			return true
		}
		return false
	}

	rep := detlint.NewReporter(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	insp.Preorder([]ast.Node{
		(*ast.ExprStmt)(nil),
		(*ast.DeferStmt)(nil),
		(*ast.AssignStmt)(nil),
		(*ast.FuncDecl)(nil),
		(*ast.FuncLit)(nil),
	}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return
			}
			if fn, ok := criticalErrCall(pass.TypesInfo, call, critical); ok {
				rep.Reportf(call.Pos(),
					"discarded error from %s; a lost %s failure silently corrupts the shard artifact path — check it, return it, or suppress with a reason",
					qualifiedName(fn), fn.Name())
			}
		case *ast.DeferStmt:
			if fn, ok := criticalErrCall(pass.TypesInfo, n.Call, critical); ok {
				rep.Reportf(n.Pos(),
					"deferred call to %s discards its error; on write paths this is where short writes surface — close/flush explicitly and check, or suppress with a reason",
					qualifiedName(fn))
			}
		case *ast.AssignStmt:
			checkBlanked(pass, rep, critical, n)
		case *ast.FuncDecl:
			if n.Body != nil {
				checkShadow(pass, rep, critical, cfgs.FuncDecl(n))
			}
		case *ast.FuncLit:
			checkShadow(pass, rep, critical, cfgs.FuncLit(n))
		}
	})
	return nil, nil
}

// checkBlanked flags error results of critical calls assigned to _.
func checkBlanked(pass *analysis.Pass, rep *detlint.Reporter, critical func(string) bool, as *ast.AssignStmt) {
	info := pass.TypesInfo
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn, ok := criticalErrCall(info, call, critical)
	if !ok {
		return
	}
	sig := fn.Signature()
	results := sig.Results()
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		// Map the blanked position to the corresponding result. With one
		// LHS the call must have exactly one result (the error).
		if len(as.Lhs) != results.Len() && results.Len() != 1 {
			continue
		}
		ri := i
		if results.Len() == 1 {
			ri = 0
		}
		if types.Identical(results.At(ri).Type(), errorType) {
			rep.Reportf(id.Pos(),
				"error from %s assigned to _; a lost %s failure silently corrupts the shard artifact path — bind and check it, or suppress with a reason",
				qualifiedName(fn), fn.Name())
		}
	}
}

// pendingErr is an unread error from a critical call.
type pendingErr struct {
	pos  token.Pos
	from string
}

// checkShadow walks each basic block's nodes in execution order and flags
// an error variable holding a critical call's result that is overwritten
// before any read. State does not cross blocks: a read in a successor
// block (the usual `if err != nil` in the same block, or later) keeps the
// error alive, so branches never produce false positives.
func checkShadow(pass *analysis.Pass, rep *detlint.Reporter, critical func(string) bool, g *cfg.CFG) {
	if g == nil {
		return
	}
	info := pass.TypesInfo
	for _, b := range g.Blocks {
		pending := make(map[types.Object]pendingErr)
		for _, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				// Any other node only reads.
				clearReads(info, n, pending)
				continue
			}
			// Reads on the RHS (and inside non-ident LHS expressions like
			// m[k]) happen before the writes land.
			for _, rhs := range as.Rhs {
				clearReads(info, rhs, pending)
			}
			for _, lhs := range as.Lhs {
				if _, isIdent := lhs.(*ast.Ident); !isIdent {
					clearReads(info, lhs, pending)
				}
			}
			// Now the writes: overwriting a pending error loses it.
			fn, isCritical := (*types.Func)(nil), false
			if len(as.Rhs) == 1 {
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
					fn, isCritical = criticalErrCall(info, call, critical)
				}
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := identObject(info, id)
				if obj == nil || !types.Identical(obj.Type(), errorType) {
					continue
				}
				if p, ok := pending[obj]; ok {
					rep.Reportf(p.pos,
						"error from %s stored in %s is overwritten before being read; the first failure is lost — check it before reusing the variable",
						p.from, id.Name)
				}
				delete(pending, obj)
				if isCritical {
					pending[obj] = pendingErr{pos: as.Pos(), from: qualifiedName(fn)}
				}
			}
		}
	}
}

// clearReads removes from pending every error variable read under n.
func clearReads(info *types.Info, n ast.Node, pending map[types.Object]pendingErr) {
	if n == nil || len(pending) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				delete(pending, obj)
			}
		}
		return true
	})
}

// identObject resolves an identifier to its object, covering both the
// defining occurrence in := and plain uses.
func identObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// criticalErrCall reports whether call invokes a function from an
// error-critical package whose last result is an error, returning the
// callee. Interface methods count (io.Writer.Write is the archetype), so
// resolution goes through the selection rather than typeutil.StaticCallee.
//
// Method calls are classified by the package of the receiver's static
// type, not of the method's declaring type: writing to a hash.Hash64
// resolves to the embedded io.Writer.Write, but hash writes never fail,
// and it is the receiver type — what the call actually operates on — that
// decides whether the error matters for the artifact path.
func criticalErrCall(info *types.Info, call *ast.CallExpr, critical func(string) bool) (*types.Func, bool) {
	var fn *types.Func
	var classify *types.Package
	switch f := deparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[f.Sel].(*types.Func)
		if s := info.Selections[f]; s != nil && s.Kind() == types.MethodVal {
			classify = namedPkg(s.Recv())
		}
	}
	if fn == nil {
		return nil, false
	}
	if classify == nil {
		classify = fn.Pkg()
	}
	if classify == nil || !critical(classify.Path()) {
		return nil, false
	}
	results := fn.Signature().Results()
	if results.Len() == 0 {
		return nil, false
	}
	if !types.Identical(results.At(results.Len()-1).Type(), errorType) {
		return nil, false
	}
	return fn, true
}

// namedPkg resolves a (possibly pointer-to-)named type to its defining
// package; unnamed types return nil.
func namedPkg(t types.Type) *types.Package {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok && n.Obj() != nil {
		return n.Obj().Pkg()
	}
	return nil
}

func deparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// qualifiedName renders pkgname.Func or pkgname.Type.Method for diagnostics.
func qualifiedName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			return fmt.Sprintf("%s.%s.%s", fn.Pkg().Name(), n.Obj().Name(), fn.Name())
		}
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
