package detlint

import (
	"fmt"
	"go/types"
	"reflect"

	"golang.org/x/tools/go/analysis"
)

// FactStore carries analyzer facts across the packages of one driver run.
//
// The gen-2 analyzers (hotalloc in particular) summarize per-function
// properties — "may this function heap-allocate, and where" — and consult
// those summaries at cross-package call sites. Inside one in-process driver
// run there is no need for the gob serialization the upstream framework
// uses between separate processes; instead facts are stored under a
// (fact type, package path, object name) key built from the standard
// library alone: a function or method is named by the FullName of its
// generic origin, a package-scope type by its name. That key is identical
// whether the object came from type-checking the package's own source or
// from the gc export data a downstream package imports it through, which
// is exactly the hand-off cmd/detlint performs when it analyzes packages in
// dependency order. Keying on the origin also lets a call into an
// instantiated generic (dep.G[float64].Make) find the fact exported for
// the generic declaration.
//
// The zero FactStore is not ready to use; call NewFactStore.
type FactStore struct {
	// objFacts holds facts attached to functions, methods and
	// package-scope types, keyed by name so lookups work across the
	// source/export-data boundary.
	objFacts map[objFactKey]analysis.Fact
	// objIdent is the identity fallback for objects with no name key
	// (e.g. locals); such facts resolve only within the same type-checked
	// universe.
	objIdent map[identKey]analysis.Fact
}

type objFactKey struct {
	fact reflect.Type
	pkg  string
	name string
}

type identKey struct {
	fact reflect.Type
	obj  types.Object
}

// NewFactStore returns an empty store, shared across every package of a
// driver run.
func NewFactStore() *FactStore {
	return &FactStore{
		objFacts: make(map[objFactKey]analysis.Fact),
		objIdent: make(map[identKey]analysis.Fact),
	}
}

// objectName is obj's export-data-stable name within its package, or ""
// when obj has none.
func objectName(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin().FullName()
	case *types.TypeName:
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Name()
		}
	}
	return ""
}

// exportObjectFact records fact for obj. Facts may only be attached to
// objects of the package currently under analysis, per the upstream
// contract.
func (s *FactStore) exportObjectFact(current *types.Package, obj types.Object, fact analysis.Fact) {
	if obj == nil || obj.Pkg() != current {
		panic(fmt.Sprintf("detlint: exporting fact %T for object %v outside the current package", fact, obj))
	}
	t := reflect.TypeOf(fact)
	s.objIdent[identKey{t, obj}] = fact
	if name := objectName(obj); name != "" {
		s.objFacts[objFactKey{t, current.Path(), name}] = fact
	}
}

// importObjectFact copies the fact previously exported for obj (possibly
// while analyzing another package) into ptr and reports whether one was
// found. ptr must be a pointer of the same concrete type the exporter used.
func (s *FactStore) importObjectFact(obj types.Object, ptr analysis.Fact) bool {
	if obj == nil {
		return false
	}
	t := reflect.TypeOf(ptr)
	f, ok := s.objIdent[identKey{t, obj}]
	if !ok && obj.Pkg() != nil {
		if name := objectName(obj); name != "" {
			f, ok = s.objFacts[objFactKey{t, obj.Pkg().Path(), name}]
		}
	}
	if ok {
		copyFact(f, ptr)
	}
	return ok
}

// copyFact copies the stored fact value into the caller's pointer. Facts
// are pointers to structs by convention; a shallow struct copy matches the
// upstream decode-into-pointer semantics.
func copyFact(from, to analysis.Fact) {
	dv := reflect.ValueOf(to)
	sv := reflect.ValueOf(from)
	if dv.Type() != sv.Type() || dv.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("detlint: fact type mismatch: stored %T, requested %T", from, to))
	}
	dv.Elem().Set(sv.Elem())
}

// bind installs the store's fact operations on a pass. Passes whose
// analyzer declares no FactTypes get no-op hooks (using facts without
// declaring them is an analyzer bug upstream, too), and no analyzer in the
// suite uses package facts.
func (s *FactStore) bind(pass *analysis.Pass) {
	pass.ExportPackageFact = func(analysis.Fact) {
		panic("detlint: " + pass.Analyzer.Name + " exports a package fact, which this store does not carry")
	}
	pass.ImportPackageFact = func(*types.Package, analysis.Fact) bool { return false }
	pass.AllObjectFacts = func() []analysis.ObjectFact { return nil }
	pass.AllPackageFacts = func() []analysis.PackageFact { return nil }
	if len(pass.Analyzer.FactTypes) == 0 {
		pass.ExportObjectFact = func(types.Object, analysis.Fact) {
			panic("detlint: " + pass.Analyzer.Name + " exports facts but declares no FactTypes")
		}
		pass.ImportObjectFact = func(types.Object, analysis.Fact) bool { return false }
		return
	}
	current := pass.Pkg
	pass.ExportObjectFact = func(obj types.Object, fact analysis.Fact) {
		s.exportObjectFact(current, obj, fact)
	}
	pass.ImportObjectFact = s.importObjectFact
}
