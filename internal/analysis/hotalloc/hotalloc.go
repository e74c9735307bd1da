// Package hotalloc defines an analyzer that keeps annotated hot paths
// free of heap allocations — the static twin of the repo's
// testing.AllocsPerRun assertions (0-alloc workspace reuse, Monte-Carlo
// aggregation whose allocations do not grow with the run count).
//
// A function is a hot root when its doc comment carries
//
//	//detlint:hotpath witness=<TestOrBenchmarkName>
//
// naming the AllocsPerRun test or benchmark that asserts the same
// property at runtime (an annotation without a witness is itself a
// diagnostic, and the repo-level TestHotpathWitnesses guard checks the
// named witness exists). The hot set is the roots plus their transitive
// same-package static callees, plus — when hot code calls through an
// interface — the same-package concrete implementations of that method
// (interface satisfaction), so extracting a helper or hiding one behind
// an interface does not silently drop it from the contract.
//
// Inside hot functions the analyzer flags the allocation forms the
// runtime witnesses would surface as AllocsPerRun regressions: make/new,
// escaping composite literals (&T{...}, slice and map literals),
// interface boxing of concrete values at calls, assignments and returns,
// variable-capturing closures, append that is not the self-append reuse
// idiom (dst = append(dst, ...)), string<->[]byte conversions and
// non-constant string concatenation, and go statements.
//
// Calls that leave the package are checked through analyzer facts: every
// package analyzed earlier in dependency order exports a bounded
// may-allocate summary (AllocsFact) for each of its functions, so a hot
// function calling stats.(*Dist).Add is diagnosed exactly when Add (or
// anything it transitively calls) allocates. A reasoned
// //detlint:ignore hotalloc suppression removes a site, or a call out of
// the package, from the local report and from the exported summary,
// which is how deliberate amortized allocations (lazy one-time map init
// in accumulators, O(jobs) worker-pool setup) and error paths are kept
// out of their callers' diagnostics.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"github.com/dramstudy/rhvpp/internal/analysis/detlint"
)

// HotPrefix starts a hot-path annotation in a function's doc comment.
const HotPrefix = "//detlint:hotpath"

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags heap allocations (make/new, escaping literals, interface boxing, capturing closures, " +
		"non-reuse append, string conversions) in //detlint:hotpath functions and their transitive callees",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*AllocsFact)(nil)},
	Run:       run,
}

// maxFactSites bounds the per-function summary so facts stay O(1).
const maxFactSites = 3

// AllocsFact is the exported may-allocate summary of one function:
// human-readable descriptions of up to maxFactSites representative
// (transitive) allocation sites. The absence of a fact means the function
// was not seen to allocate.
type AllocsFact struct {
	Sites []string
}

func (*AllocsFact) AFact() {}

func (f *AllocsFact) String() string { return "allocates: " + strings.Join(f.Sites, "; ") }

// site is one potential heap allocation.
type site struct {
	pos  token.Pos
	desc string
}

// funcInfo is the per-function analysis state.
type funcInfo struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	sites   []site       // direct allocation sites in the body (suppressions applied)
	callees []callEdge   // static same-package calls
	ifaces  []ifaceCall  // interface-method calls (for satisfaction propagation)
	remote  []remoteCall // cross-package static calls
	// hot annotation state
	hot     bool
	witness string
	hotPos  token.Pos
}

type callEdge struct {
	callee *types.Func
	pos    token.Pos
}

type ifaceCall struct {
	method *types.Func // interface method object
	pos    token.Pos
}

type remoteCall struct {
	callee *types.Func
	pos    token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	rep := detlint.NewReporter(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	funcs := make(map[*types.Func]*funcInfo)
	var order []*funcInfo // declaration order, for deterministic fact export
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		obj, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if obj == nil || decl.Body == nil {
			return
		}
		fi := &funcInfo{decl: decl, obj: obj}
		fi.hot, fi.witness, fi.hotPos = hotAnnotation(decl)
		collectBody(pass, rep, fi)
		funcs[obj] = fi
		order = append(order, fi)
	})

	// Transitive may-allocate summaries for every function: direct sites,
	// same-package callees (cycle-safe), imported facts and the known
	// allocating stdlib entry points for calls that leave the package.
	summaries := make(map[*types.Func][]string)
	state := make(map[*types.Func]int) // 0 unvisited, 1 in progress, 2 done
	var summarize func(fn *types.Func) []string
	summarize = func(fn *types.Func) []string {
		if state[fn] == 2 {
			return summaries[fn]
		}
		if state[fn] == 1 {
			return nil // recursion: the cycle's sites are collected at entry
		}
		state[fn] = 1
		fi := funcs[fn]
		var sites []string
		add := func(s string) {
			if len(sites) < maxFactSites {
				sites = append(sites, s)
			}
		}
		for _, s := range fi.sites {
			add(fmt.Sprintf("%s at %s", s.desc, relPos(pass, s.pos)))
		}
		for _, c := range fi.callees {
			if _, ok := funcs[c.callee]; !ok {
				continue
			}
			for _, s := range summarize(c.callee) {
				add(s)
			}
		}
		for _, rc := range fi.remote {
			if desc, ok := remoteAllocates(pass, rc.callee); ok {
				add(desc)
			}
		}
		state[fn] = 2
		summaries[fn] = sites
		return sites
	}
	for _, fi := range order {
		summarize(fi.obj)
	}
	for _, fi := range order {
		if s := summaries[fi.obj]; len(s) > 0 {
			pass.ExportObjectFact(fi.obj, &AllocsFact{Sites: s})
		}
	}

	// Hot cone: annotated roots plus transitive same-package callees,
	// widened through interface satisfaction at interface call sites.
	type hotEntry struct {
		fi   *funcInfo
		root string
	}
	rootOf := make(map[*types.Func]string)
	var queue []hotEntry
	for _, fi := range order {
		if !fi.hot {
			continue
		}
		if fi.witness == "" {
			rep.Reportf(fi.hotPos,
				"detlint:hotpath annotation on %s names no runtime witness; write //detlint:hotpath witness=<AllocsPerRun test or benchmark> so the static contract stays tied to a runtime assertion",
				fi.obj.Name())
		}
		queue = append(queue, hotEntry{fi, fi.obj.Name()})
	}
	implCache := newImplCache(pass)
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if _, seen := rootOf[e.fi.obj]; seen {
			continue
		}
		rootOf[e.fi.obj] = e.root
		for _, c := range e.fi.callees {
			if cfi, ok := funcs[c.callee]; ok {
				queue = append(queue, hotEntry{cfi, e.root})
			}
		}
		for _, ic := range e.fi.ifaces {
			for _, impl := range implCache.implementations(ic.method) {
				if cfi, ok := funcs[impl]; ok {
					queue = append(queue, hotEntry{cfi, e.root})
				}
			}
		}
	}

	// Report: direct sites inside hot functions, and hot calls into other
	// packages whose fact says the callee may allocate.
	for _, fi := range order {
		root, hot := rootOf[fi.obj]
		if !hot {
			continue
		}
		where := fmt.Sprintf("hotpath function %s", fi.obj.Name())
		if root != fi.obj.Name() {
			where = fmt.Sprintf("%s (hot via %s)", fi.obj.Name(), root)
		}
		for _, s := range fi.sites {
			rep.Reportf(s.pos, "%s in %s; hot paths must reuse workspace memory (witness: AllocsPerRun)", s.desc, where)
		}
		for _, rc := range fi.remote {
			if desc, ok := remoteAllocates(pass, rc.callee); ok {
				rep.Reportf(rc.pos, "call to %s may allocate (%s) in %s", qualifiedName(rc.callee), desc, where)
			}
		}
	}
	return nil, nil
}

// remoteAllocates reports whether a cross-package callee may allocate:
// either its exporting package recorded an AllocsFact, or it is one of the
// known allocating stdlib entry points (fmt, errors.New, the allocating
// strings/strconv/sort helpers). Unknown callees are trusted — the runtime
// witness is the backstop — so alloc-free stdlib like math never trips the
// contract.
func remoteAllocates(pass *analysis.Pass, callee *types.Func) (string, bool) {
	var fact AllocsFact
	if pass.ImportObjectFact(callee, &fact) {
		return strings.Join(fact.Sites, "; "), true
	}
	if pkg := callee.Pkg(); pkg != nil && stdAllocating(pkg.Path(), callee.Name()) {
		return "allocates by design", true
	}
	return "", false
}

// stdAllocating lists stdlib calls that always allocate their result.
func stdAllocating(pkgPath, name string) bool {
	switch pkgPath {
	case "fmt":
		return true
	case "errors":
		return name == "New"
	case "strings":
		switch name {
		case "Join", "Repeat", "Replace", "ReplaceAll", "Split", "SplitN", "Fields", "ToUpper", "ToLower", "Map", "Clone":
			return true
		}
	case "strconv":
		switch name {
		case "FormatFloat", "FormatInt", "FormatUint", "Itoa", "Quote", "AppendFloat":
			return true
		}
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable":
			return true // interface boxing / lessSwap closure
		}
	}
	return false
}

// hotAnnotation parses a //detlint:hotpath directive from the doc comment.
func hotAnnotation(decl *ast.FuncDecl) (hot bool, witness string, pos token.Pos) {
	if decl.Doc == nil {
		return false, "", token.NoPos
	}
	for _, c := range decl.Doc.List {
		rest, found := strings.CutPrefix(c.Text, HotPrefix)
		if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		w := ""
		for _, f := range strings.Fields(rest) {
			if v, ok := strings.CutPrefix(f, "witness="); ok {
				w = v
			}
		}
		return true, w, c.Pos()
	}
	return false, "", token.NoPos
}

// collectBody walks one function body (including nested function
// literals, whose allocations execute on behalf of the enclosing
// function) and records allocation sites and outgoing call edges.
// Suppressed sites and suppressed calls out of the package are dropped
// here, so they reach neither the report nor the exported fact.
func collectBody(pass *analysis.Pass, rep *detlint.Reporter, fi *funcInfo) {
	info := pass.TypesInfo
	addSite := func(pos token.Pos, desc string) {
		if rep.Suppressed(pos) {
			return
		}
		fi.sites = append(fi.sites, site{pos, desc})
	}

	// Self-append reuse idiom: dst = append(dst, ...) and
	// dst = append(dst[:0], ...) are the workspace-reuse forms; collect
	// the append calls they bless before the generic walk.
	allowedAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "append") || len(call.Args) == 0 {
			return true
		}
		if types.ExprString(as.Lhs[0]) == types.ExprString(stripSlice(call.Args[0])) {
			allowedAppend[call] = true
		}
		return true
	})

	// flaggedLit suppresses nested reports inside an already-flagged
	// composite literal: []T{{...}} is one allocation.
	flaggedLit := make(map[ast.Node]bool)

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			addSite(n.Pos(), "go statement (allocates a goroutine)")

		case *ast.FuncLit:
			if capt := captured(info, n); capt != "" {
				addSite(n.Pos(), fmt.Sprintf("closure capturing %s", capt))
			}
			return true // walk the body: its allocations run on our behalf

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := n.X.(*ast.CompositeLit); ok {
					addSite(n.Pos(), "escaping composite literal (&-literal)")
					flaggedLit[lit] = true
				}
			}

		case *ast.CompositeLit:
			if flaggedLit[n] {
				return true
			}
			switch types.Unalias(info.TypeOf(n)).Underlying().(type) {
			case *types.Slice:
				addSite(n.Pos(), "slice literal (allocates a backing array)")
			case *types.Map:
				addSite(n.Pos(), "map literal")
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) && info.Types[n].Value == nil {
				addSite(n.Pos(), "string concatenation")
			}

		case *ast.CallExpr:
			collectCall(pass, fi, addSite, allowedAppend, n)
		}
		return true
	})

	// Boxing at assignments, returns, and declarations.
	collectBoxing(pass, fi, addSite)
	fi.remote = slices.DeleteFunc(fi.remote, func(rc remoteCall) bool { return rep.Suppressed(rc.pos) })
}

// collectCall classifies one call expression: builtin allocators, type
// conversions, static same-package calls, interface dispatch, and
// cross-package calls.
func collectCall(pass *analysis.Pass, fi *funcInfo, addSite func(token.Pos, string), allowedAppend map[*ast.CallExpr]bool, call *ast.CallExpr) {
	info := pass.TypesInfo

	// Conversions: T(x). String<->byte/rune conversions allocate; so does
	// converting a concrete value to an interface type.
	if tv, ok := info.Types[deparen(call.Fun)]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			switch {
			case isString(to) && isByteOrRuneSlice(from):
				addSite(call.Pos(), "[]byte/[]rune-to-string conversion")
			case isByteOrRuneSlice(to) && isString(from):
				addSite(call.Pos(), "string-to-[]byte/[]rune conversion")
			default:
				if desc, ok := boxes(info, call.Args[0], to); ok {
					addSite(call.Pos(), desc)
				}
			}
		}
		return
	}

	if isBuiltin(info, call, "make") {
		addSite(call.Pos(), "make")
		return
	}
	if isBuiltin(info, call, "new") {
		addSite(call.Pos(), "new")
		return
	}
	if isBuiltin(info, call, "append") {
		if !allowedAppend[call] {
			addSite(call.Pos(), "append outside the dst = append(dst, ...) reuse idiom (allocates a new backing array)")
		}
		// Boxing of variadic interface elements still applies below.
	}

	// Boxing of concrete arguments into interface parameters.
	if sig, ok := typeOfCallee(info, call); ok {
		params := sig.Params()
		np := params.Len()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= np-1:
				if call.Ellipsis.IsValid() {
					continue // forwarding an existing slice: no boxing here
				}
				pt = types.Unalias(params.At(np - 1).Type()).(*types.Slice).Elem()
			case i < np:
				pt = params.At(i).Type()
			default:
				continue
			}
			if desc, ok := boxes(info, arg, pt); ok {
				addSite(arg.Pos(), desc)
			}
		}
	}

	// Call edges.
	if callee := typeutil.StaticCallee(info, call); callee != nil {
		if callee.Pkg() == pass.Pkg {
			fi.callees = append(fi.callees, callEdge{callee, call.Pos()})
		} else if callee.Pkg() != nil {
			fi.remote = append(fi.remote, remoteCall{callee, call.Pos()})
		}
		return
	}
	// Interface dispatch: record for satisfaction propagation.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if m, ok := s.Obj().(*types.Func); ok {
				if _, isIface := types.Unalias(s.Recv()).Underlying().(*types.Interface); isIface {
					fi.ifaces = append(fi.ifaces, ifaceCall{m, call.Pos()})
				}
			}
		}
	}
}

// collectBoxing flags concrete-to-interface conversions at assignments,
// variable declarations, and returns.
func collectBoxing(pass *analysis.Pass, fi *funcInfo, addSite func(token.Pos, string)) {
	info := pass.TypesInfo
	results := fi.obj.Signature().Results()
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				lt := info.TypeOf(n.Lhs[i])
				if desc, ok := boxes(info, rhs, lt); ok {
					addSite(rhs.Pos(), desc)
				}
			}
		case *ast.ValueSpec:
			if n.Type == nil {
				return true
			}
			lt := info.TypeOf(n.Type)
			for _, v := range n.Values {
				if desc, ok := boxes(info, v, lt); ok {
					addSite(v.Pos(), desc)
				}
			}
		case *ast.ReturnStmt:
			if results == nil || len(n.Results) != results.Len() {
				return true
			}
			for i, res := range n.Results {
				if desc, ok := boxes(info, res, results.At(i).Type()); ok {
					addSite(res.Pos(), desc)
				}
			}
		case *ast.FuncLit:
			return false // its own returns have a different signature
		}
		return true
	})
}

// boxes reports whether storing expr into a location of type to performs
// an allocating interface conversion: to is an interface and expr has a
// concrete non-pointer type. Pointers fit in the interface data word and
// untyped constants are materialized in static data, so neither allocates.
func boxes(info *types.Info, expr ast.Expr, to types.Type) (string, bool) {
	if to == nil {
		return "", false
	}
	if _, ok := types.Unalias(to).Underlying().(*types.Interface); !ok {
		return "", false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil {
		return "", false
	}
	from := types.Unalias(tv.Type)
	switch from.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Signature, *types.Map, *types.Chan:
		return "", false // single-word or already boxed
	case *types.Basic:
		if from.Underlying().(*types.Basic).Kind() == types.UntypedNil {
			return "", false
		}
	}
	return fmt.Sprintf("interface boxing of %s value", types.TypeString(tv.Type, pkgNameQualifier)), true
}

// pkgNameQualifier renders named types as pkgname.Type in diagnostics.
func pkgNameQualifier(p *types.Package) string { return p.Name() }

// captured returns the name of a variable the function literal captures
// from an enclosing scope ("" when it captures nothing): package-level
// objects and the literal's own locals/params do not count.
func captured(info *types.Info, lit *ast.FuncLit) string {
	declared := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				declared[obj] = true
			}
		}
		return true
	})
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || declared[obj] || v.IsField() {
			return true
		}
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return true // package-level
		}
		name = id.Name
		return false
	})
	return name
}

// implCache resolves interface methods to the same-package concrete
// methods satisfying them.
type implCache struct {
	pass  *analysis.Pass
	named []*types.Named
	memo  map[*types.Func][]*types.Func
	msets typeutil.MethodSetCache
}

func newImplCache(pass *analysis.Pass) *implCache {
	c := &implCache{pass: pass, memo: make(map[*types.Func][]*types.Func)}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() { // Names() is sorted: deterministic
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok {
			if _, isIface := n.Underlying().(*types.Interface); !isIface {
				c.named = append(c.named, n)
			}
		}
	}
	return c
}

// implementations returns the concrete methods of package-local types
// that satisfy the interface declaring m, matched by method name.
func (c *implCache) implementations(m *types.Func) []*types.Func {
	if impls, ok := c.memo[m]; ok {
		return impls
	}
	iface, _ := m.Signature().Recv().Type().Underlying().(*types.Interface)
	var impls []*types.Func
	if iface != nil {
		for _, n := range c.named {
			ptr := types.NewPointer(n)
			if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for _, t := range []types.Type{n, ptr} {
				if sel := c.msets.MethodSet(t).Lookup(m.Pkg(), m.Name()); sel != nil {
					if f, ok := sel.Obj().(*types.Func); ok && f.Pkg() == c.pass.Pkg {
						impls = append(impls, f)
						break
					}
				}
			}
		}
	}
	c.memo[m] = impls
	return impls
}

// typeOfCallee returns the signature of a call's callee when statically
// known (function, method, or func-typed value — not a type conversion or
// builtin).
func typeOfCallee(info *types.Info, call *ast.CallExpr) (*types.Signature, bool) {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := types.Unalias(t).Underlying().(*types.Signature)
	return sig, ok
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := deparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
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

// stripSlice unwraps dst[:0]-style slice expressions to their base.
func stripSlice(e ast.Expr) ast.Expr {
	for {
		s, ok := e.(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = s.X
	}
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

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

// relPos renders a short position (base filename:line) for fact text.
func relPos(pass *analysis.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
