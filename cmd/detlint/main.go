// Command detlint runs the rhvpp determinism, shard-safety, and
// performance-contract analyzer suite (internal/analysis/...) over Go
// package patterns:
//
//	go run ./cmd/detlint ./...          # human-readable, exit 1 on findings
//	go run ./cmd/detlint -json ./...    # machine-readable diagnostics
//	go run ./cmd/detlint -bench ./...   # plus one JSON timing line on stderr
//
// The driver is self-contained so it works offline: package metadata and
// compiler export data come from `go list -deps -export -json`, source is
// parsed and type-checked in-process, packages are analyzed in dependency
// order so cross-package analyzer facts (hotalloc's allocation summaries)
// are available at every call site, and the analyzers run through the same
// execution core as their analysistest fixtures. Suppressions use
// //detlint:ignore <analyzer> <reason> (see internal/analysis/detlint).
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
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
	"sort"
	"strings"
	"time"

	"golang.org/x/tools/go/analysis"

	"github.com/dramstudy/rhvpp/internal/analysis/detlint"
	"github.com/dramstudy/rhvpp/internal/analysis/suite"
)

func main() {
	now := time.Now //detlint:ignore detsource -bench self-times the analyzer run; the timing goes to stderr, never into findings
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, now))
}

// benchLine is what -bench prints on stderr after a run: the suite's cost
// per analyzed package, in total and per analyzer (helper passes such as
// inspect and ctrlflow under their own names).
type benchLine struct {
	NSPerPkg         float64            `json:"detlint_ns_per_pkg"`
	AnalyzerNSPerPkg map[string]float64 `json:"detlint_analyzer_ns_per_pkg"`
}

// run is the driver behind main: it lints the package patterns in args,
// writes findings to stdout and returns the exit status. now is the only
// clock it reads, and only for the -bench line.
func run(args []string, stdout, stderr io.Writer, now func() time.Time) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	bench := fs.Bool("bench", false,
		"after a run, print detlint_ns_per_pkg and the per-analyzer detlint_analyzer_ns_per_pkg breakdown as one JSON line on stderr")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzerNS := make(map[string]float64)
	var clock func() time.Time
	var observe func(string, time.Duration)
	if *bench {
		clock = now
		observe = func(name string, elapsed time.Duration) {
			analyzerNS[name] += float64(elapsed.Nanoseconds())
		}
	}
	start := now()
	findings, npkgs, err := lint(".", patterns, clock, observe)
	elapsed := now().Sub(start)
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "detlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s: [%s] %s\n", relPos(f.Pos), f.Analyzer, f.Message)
		}
	}
	if *bench && npkgs > 0 {
		line := benchLine{
			NSPerPkg:         float64(elapsed.Nanoseconds()) / float64(npkgs),
			AnalyzerNSPerPkg: make(map[string]float64, len(analyzerNS)),
		}
		for name, ns := range analyzerNS {
			line.AnalyzerNSPerPkg[name] = ns / float64(npkgs)
		}
		// Map marshaling sorts keys, so the line's layout is stable.
		if err := json.NewEncoder(stderr).Encode(line); err != nil {
			return 2
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// listedPkg is the subset of `go list -json` output the driver consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	Deps       []string
}

// lint loads the packages matching patterns (relative to dir) and runs the
// full analyzer suite over every non-dependency, non-test package, in
// dependency order under one shared fact store so facts exported while
// analyzing a package are visible at its importers' call sites. It returns
// the findings plus the number of packages analyzed (for -bench). A
// non-nil clock enables per-analyzer timing, reported through observe.
func lint(dir string, patterns []string, clock func() time.Time, observe func(string, time.Duration)) ([]detlint.Finding, int, error) {
	pkgs, err := load(dir, patterns)
	if err != nil {
		return nil, 0, err
	}
	exports := make(map[string]string, len(pkgs))
	var targets []listedPkg
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	// Analysis order is topological: Deps is the TRANSITIVE dependency
	// cone, so "fewer in-target deps first" (ties broken by the unique
	// ImportPath) puts every target after all targets it imports. The
	// report stays in position order because findings are re-sorted
	// globally below.
	inTarget := make(map[string]bool, len(targets))
	for _, t := range targets {
		inTarget[t.ImportPath] = true
	}
	depCount := func(p listedPkg) int {
		n := 0
		for _, d := range p.Deps {
			if inTarget[d] {
				n++
			}
		}
		return n
	}
	sort.SliceStable(targets, func(i, j int) bool {
		ni, nj := depCount(targets[i]), depCount(targets[j])
		if ni != nj {
			return ni < nj
		}
		return targets[i].ImportPath < targets[j].ImportPath
	})

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in the `go list -deps -export` cone)", path)
		}
		return os.Open(file)
	})

	var findings []detlint.Finding
	analyzers := suite.All()
	store := detlint.NewFactStore()
	for _, target := range targets {
		if len(target.CgoFiles) > 0 {
			return nil, 0, fmt.Errorf("%s uses cgo, which this driver cannot type-check", target.ImportPath)
		}
		pkgFindings, err := lintPackage(fset, imp, target, analyzers, store, clock, observe)
		if err != nil {
			return nil, 0, err
		}
		findings = append(findings, pkgFindings...)
	}
	detlint.SortFindings(findings)
	return findings, len(targets), nil
}

// lintPackage parses, type-checks and analyzes one package.
func lintPackage(fset *token.FileSet, imp types.Importer, target listedPkg, analyzers []*analysis.Analyzer, store *detlint.FactStore, clock func() time.Time, observe func(string, time.Duration)) ([]detlint.Finding, error) {
	files := make([]*ast.File, 0, len(target.GoFiles))
	for _, name := range target.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(target.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := detlint.NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(target.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", target.ImportPath, err)
	}
	return detlint.RunAnalyzers(&detlint.Package{Fset: fset, Files: files, Types: tpkg, Info: info}, analyzers, store, clock, observe)
}

// load shells out to `go list` for package metadata plus export data for
// the full dependency cone (stdlib included), so type-checking never
// needs the network.
func load(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Export,Standard,DepOnly,Deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// jsonFinding is the machine-readable diagnostic record for -json.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// writeJSON emits findings as an indented JSON array (always an array,
// [] when clean) so downstream tooling can consume diagnostics without
// scraping text.
func writeJSON(w io.Writer, findings []detlint.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Analyzer: f.Analyzer,
			File:     relPath(f.Pos.Filename),
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// relPos renders a position with a cwd-relative file path.
func relPos(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", relPath(p.Filename), p.Line, p.Column)
}

func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
