// Package analysistest runs an analyzer over GOPATH-style fixture packages
// and checks its diagnostics against // want comments, mirroring the
// upstream golang.org/x/tools/go/analysis/analysistest API.
//
// The upstream harness depends on go/packages; this one is self-contained
// so the repo builds offline: fixture packages under <dir>/src are parsed
// and type-checked directly, fixture-to-fixture imports resolve within the
// tree, and standard-library imports load from compiler export data
// obtained once per path via `go list -deps -export -json`.
//
// Expectations use the upstream syntax: a comment of the form
//
//	want "regexp" `another regexp`
//
// requires one diagnostic on its line matching each pattern. The
// expectation may also ride inside a //detlint:ignore directive comment
// after a `// want` separator, which the directive parser treats as the
// end of the reason; that is how fixtures pin diagnostics reported at the
// directive itself (e.g. the unreasoned-ignore check).
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"golang.org/x/tools/go/analysis"

	"github.com/dramstudy/rhvpp/internal/analysis/detlint"
)

// TestData returns the absolute path of the calling test's testdata
// directory, the conventional fixture root.
func TestData() string {
	p, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return p
}

// Run analyzes each fixture package (a path relative to dir/src) with a
// and reports mismatches between diagnostics and // want expectations as
// test errors.
//
// Fixture packages the target imports from the same tree are analyzed
// first (in load-completion order, i.e. dependencies before importers)
// under a shared fact store, so analyzers that summarize dependencies via
// facts — hotalloc's cross-package allocation summaries — see exactly the
// driver's scheduling. Only the target package's diagnostics are matched
// against // want comments; dependency fixtures contribute facts alone.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		l := newLoader(filepath.Join(dir, "src"))
		p, err := l.load(pkg)
		if err != nil {
			t.Errorf("loading fixture %q: %v", pkg, err)
			continue
		}
		store := detlint.NewFactStore()
		ok := true
		for _, dep := range l.order {
			if dep == p {
				continue
			}
			if _, err := detlint.RunAnalyzers(&detlint.Package{
				Fset:  l.fset,
				Files: dep.files,
				Types: dep.types,
				Info:  dep.info,
			}, []*analysis.Analyzer{a}, store, nil, nil); err != nil {
				t.Errorf("running %s on dependency of %q: %v", a.Name, pkg, err)
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		findings, err := detlint.RunAnalyzers(&detlint.Package{
			Fset:  l.fset,
			Files: p.files,
			Types: p.types,
			Info:  p.info,
		}, []*analysis.Analyzer{a}, store, nil, nil)
		if err != nil {
			t.Errorf("running %s on %q: %v", a.Name, pkg, err)
			continue
		}
		checkWants(t, l.fset, p.files, a.Name, findings)
	}
}

type key struct {
	file string
	line int
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// checkWants matches findings against the fixture's // want comments:
// every diagnostic needs an expectation on its line and vice versa.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, name string, findings []detlint.Finding) {
	t.Helper()
	wants := make(map[key][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pats, err := parseWant(c.Text)
				if err != nil {
					t.Errorf("%s: %v", fset.Position(c.Pos()), err)
					continue
				}
				p := fset.Position(c.Pos())
				k := key{p.Filename, p.Line}
				for _, re := range pats {
					wants[k] = append(wants[k], &expectation{re: re})
				}
			}
		}
	}
	for _, fd := range findings {
		k := key{fd.Pos.Filename, fd.Pos.Line}
		ok := false
		for _, exp := range wants[k] {
			if !exp.matched && exp.re.MatchString(fd.Message) {
				exp.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic from %s: %s", fd.Pos, name, fd.Message)
		}
	}
	keys := make([]key, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	// Deterministic error order for the unmatched-expectation report.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, exp := range wants[k] {
			if !exp.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, exp.re)
			}
		}
	}
}

// parseWant extracts expectation regexps from one comment's text. A want
// clause starts at the beginning of the comment body or after an embedded
// "//" marker, and is a space-separated sequence of Go string literals.
func parseWant(text string) ([]*regexp.Regexp, error) {
	body := strings.TrimPrefix(strings.TrimPrefix(text, "//"), "/*")
	clause := ""
	if rest := strings.TrimSpace(body); strings.HasPrefix(rest, "want ") {
		clause = strings.TrimPrefix(rest, "want ")
	} else if i := strings.LastIndex(body, "// want "); i >= 0 {
		clause = body[i+len("// want "):]
	} else {
		return nil, nil
	}
	var pats []*regexp.Regexp
	for clause = strings.TrimSpace(clause); clause != ""; clause = strings.TrimSpace(clause) {
		lit, err := strconv.QuotedPrefix(clause)
		if err != nil {
			return nil, fmt.Errorf("malformed want clause at %q: %v", clause, err)
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(s)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %q: %v", s, err)
		}
		pats = append(pats, re)
		clause = clause[len(lit):]
	}
	return pats, nil
}

// loadedPkg is one type-checked fixture package.
type loadedPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader resolves fixture packages under srcroot and standard-library
// packages via export data. It implements types.Importer.
type loader struct {
	srcroot string
	fset    *token.FileSet
	memo    map[string]*loadedPkg
	// order records fixture packages in load-completion order: every
	// package appears after the fixture packages it imports.
	order []*loadedPkg
	std   types.Importer
}

func newLoader(srcroot string) *loader {
	l := &loader{
		srcroot: srcroot,
		fset:    token.NewFileSet(),
		memo:    make(map[string]*loadedPkg),
	}
	l.std = importer.ForCompiler(l.fset, "gc", stdExportLookup)
	return l
}

// Import resolves an import path: fixture directories win, everything
// else is expected to be standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(l.srcroot, path)); err == nil && st.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the fixture package at path (relative to
// srcroot), memoized.
func (l *loader) load(path string) (*loadedPkg, error) {
	if p, ok := l.memo[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through fixture %q", path)
		}
		return p, nil
	}
	l.memo[path] = nil // cycle marker
	dir := filepath.Join(l.srcroot, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture %q: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %q has no Go files", path)
	}
	info := detlint.NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %q: %w", path, err)
	}
	p := &loadedPkg{files: files, types: tpkg, info: info}
	l.memo[path] = p
	l.order = append(l.order, p)
	return p, nil
}

var (
	stdMu      sync.Mutex
	stdExports = make(map[string]string) // import path -> export data file
)

// stdExportLookup feeds the gc importer the export data file for a
// standard-library import path, shelling out to `go list` at most once per
// new root path (the -deps walk caches the whole dependency cone).
func stdExportLookup(path string) (io.ReadCloser, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	if file, ok := stdExports[path]; ok {
		return os.Open(file)
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Export", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %w", path, err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			stdExports[p.ImportPath] = p.Export
		}
	}
	file, ok := stdExports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}
