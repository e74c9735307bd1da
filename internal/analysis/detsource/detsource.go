// Package detsource defines an analyzer that flags unsanctioned sources
// of nondeterminism: the global math/rand generators, wall-clock reads,
// and process identity.
//
// Every stochastic quantity in this repo must come from internal/rng
// streams derived from stable label chains, so reruns reproduce identical
// numbers at any concurrency (see docs/DETERMINISM.md). Direct use of
// math/rand (v1 or v2), time.Now and friends, or os.Getpid breaks the
// byte-identical-output contract. internal/rng itself is allowlisted (it
// is the sanctioned source); genuinely wall-clock sites such as benchmark
// timing carry a //detlint:ignore detsource directive with the reason.
package detsource

import (
	"go/ast"
	"go/types"
	"regexp"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"github.com/dramstudy/rhvpp/internal/analysis/detlint"
)

var Analyzer = &analysis.Analyzer{
	Name: "detsource",
	Doc: "flags math/rand, wall-clock (time.Now etc.) and process-identity (os.Getpid) use; " +
		"internal/rng streams are the sanctioned randomness source",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// allow exempts the sanctioned RNG package itself from the check.
var allow = regexp.MustCompile(`(^|/)internal/rng$`)

// bannedImports are packages whose very import is a violation: nothing in
// them is deterministic-safe.
var bannedImports = map[string]string{
	"math/rand":    "global math/rand is seeded per-process; derive an internal/rng Stream instead",
	"math/rand/v2": "math/rand/v2 is seeded per-process; derive an internal/rng Stream instead",
}

// bannedFuncs are individual functions whose use is a violation even
// though their package is otherwise fine.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now": "wall clock", "Since": "wall clock", "Until": "wall clock",
		"Tick": "wall-clock timer", "After": "wall-clock timer",
		"NewTicker": "wall-clock timer", "NewTimer": "wall-clock timer", "AfterFunc": "wall-clock timer",
	},
	"os": {
		"Getpid":  "process identity",
		"Getppid": "process identity",
	},
}

func run(pass *analysis.Pass) (any, error) {
	if allow.MatchString(pass.Pkg.Path()) {
		return nil, nil
	}
	rep := detlint.NewReporter(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.ImportSpec)(nil), (*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ImportSpec:
			path := importPath(n)
			if why, bad := bannedImports[path]; bad {
				rep.Reportf(n.Pos(), "import of %s in a deterministic package: %s", path, why)
			}
		case *ast.SelectorExpr:
			pkg, name, ok := qualifiedUse(pass.TypesInfo, n)
			if !ok {
				return
			}
			if why, bad := bannedFuncs[pkg][name]; bad {
				rep.Reportf(n.Pos(), "%s.%s is %s and breaks byte-identical reruns; thread the value through parameters or derive it from internal/rng", pkg, name, why)
			}
		}
	})
	return nil, nil
}

func importPath(spec *ast.ImportSpec) string {
	if spec.Path == nil {
		return ""
	}
	// The literal includes quotes.
	return spec.Path.Value[1 : len(spec.Path.Value)-1]
}

// qualifiedUse resolves pkg.Name selector uses of package-level objects.
func qualifiedUse(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := info.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
