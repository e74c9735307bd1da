// Command detlint runs the rhvpp determinism, shard-safety, and
// performance-contract analyzer suite (internal/analysis/...) over Go
// package patterns:
//
//	go run ./cmd/detlint ./...          # human-readable, exit 1 on findings
//	go run ./cmd/detlint -json ./...    # machine-readable diagnostics
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
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	benchOut := flag.String("bench", "",
		"after a run, record detlint_ns_per_pkg plus the per-analyzer detlint_analyzer_ns_per_pkg breakdown into this JSON snapshot file (read-modify-write)")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Per-analyzer timing only runs under -bench: the injected clock keeps
	// the wall-clock read here, under one reasoned suppression, instead of
	// inside the analyzer core the detsource contract also covers.
	var analyzerNS map[string]float64
	var clock func() time.Time
	var observe func(string, time.Duration)
	if *benchOut != "" {
		analyzerNS = make(map[string]float64)
		clock = time.Now //detlint:ignore detsource self-timing of the analyzer run for the perf snapshot
		observe = func(name string, elapsed time.Duration) {
			analyzerNS[name] += float64(elapsed.Nanoseconds())
		}
	}
	start := time.Now() //detlint:ignore detsource self-timing of the analyzer run for the perf snapshot
	findings, npkgs, err := lint(".", patterns, clock, observe)
	elapsed := time.Since(start) //detlint:ignore detsource self-timing of the analyzer run for the perf snapshot
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: [%s] %s\n", relPos(f.Pos), f.Analyzer, f.Message)
		}
	}
	if *benchOut != "" && npkgs > 0 {
		perAnalyzer := make(map[string]float64, len(analyzerNS))
		for name, ns := range analyzerNS {
			perAnalyzer[name] = ns / float64(npkgs)
		}
		if err := recordBench(*benchOut, float64(elapsed.Nanoseconds())/float64(npkgs), perAnalyzer); err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			os.Exit(2)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// recordBench merges detlint_ns_per_pkg and the per-analyzer breakdown
// into the JSON object at path, preserving every other key
// (BENCH_spice.json is owned by cmd/spicebench; these are the
// analyzer-cost lines of the same perf snapshot).
func recordBench(path string, nsPerPkg float64, perAnalyzer map[string]float64) error {
	snapshot := make(map[string]any)
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &snapshot); err != nil {
			return fmt.Errorf("bench snapshot %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	snapshot["detlint_ns_per_pkg"] = nsPerPkg
	if len(perAnalyzer) > 0 {
		snapshot["detlint_analyzer_ns_per_pkg"] = perAnalyzer
	}
	// Map marshaling sorts keys, so repeated -bench runs rewrite the file
	// identically; cmd/spicebench carries the key through its own rewrites.
	b, err := json.MarshalIndent(snapshot, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
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
