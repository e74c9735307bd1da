package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"golang.org/x/tools/go/analysis"

	"github.com/dramstudy/rhvpp/internal/analysis/detlint"
	"github.com/dramstudy/rhvpp/internal/analysis/suite"
)

// writeModule materializes a throwaway Go module under a temp dir so the
// driver's go-list/export-data pipeline runs against a hermetic target.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLintSyntheticModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/fixmod\n\ngo 1.24\n",
		// dirty: one detsource hit (wall clock) and one maporder hit
		// (map-order append never sorted).
		"dirty/dirty.go": `package dirty

import "time"

func Stamp() int64 { return time.Now().UnixNano() }

func Collect(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`,
		// clean: same shapes done right.
		"clean/clean.go": `package clean

import "sort"

func Collect(m map[string]int) []int {
	out := make([]int, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
`,
	})

	// A fake injected clock proves the timing hook fires per analyzer
	// without reading the wall clock in a deterministic test.
	var fake time.Time
	clock := func() time.Time { fake = fake.Add(time.Microsecond); return fake }
	timed := make(map[string]time.Duration)
	findings, npkgs, err := lint(dir, []string{"./..."}, clock, func(name string, elapsed time.Duration) {
		timed[name] += elapsed
	})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, a := range suite.All() {
		if _, ok := timed[a.Name]; !ok {
			t.Errorf("per-analyzer timing missing entry for %s", a.Name)
		}
	}
	if npkgs != 2 {
		t.Errorf("lint analyzed %d packages, want 2", npkgs)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+":"+filepath.Base(f.Pos.Filename))
	}
	want := []string{"detsource:dirty.go", "maporder:dirty.go"}
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want analyzers %v", got, want)
	}
	// RunAnalyzers sorts by position then analyzer; both hits are in
	// dirty.go with detsource (line 5) before maporder (line 10).
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, f := range findings {
		if strings.Contains(f.Pos.Filename, "clean") {
			t.Errorf("clean package flagged: %+v", f)
		}
	}
}

func TestLintHonorsSuppression(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/supmod\n\ngo 1.24\n",
		"a/a.go": `package a

import "time"

//detlint:ignore detsource this package brokers real timestamps by design
func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	findings, _, err := lint(dir, []string{"./..."}, nil, nil)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("suppressed module still has findings: %+v", findings)
	}
}

// TestLintCrossPackageFacts splits hotalloc findings across two packages
// — allocating helpers in dep, hot callers in hot — so the only way the
// hot side learns that a callee allocates is the fact hand-off between
// packages, where hot sees dep through compiler export data rather than
// source. Each call shape needs the fact key to match on both sides of
// that boundary, including calls into an instantiated generic.
func TestLintCrossPackageFacts(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/factmod\n\ngo 1.24\n",
		"dep/dep.go": `package dep

func Alloc(n int) []int { return make([]int, n) }

type T struct{}

func (*T) Alloc(n int) []int { return make([]int, n) }

type G[E any] struct{}

func (*G[E]) Make(n int) []E { return make([]E, n) }

func Gen[E any](n int) []E { return make([]E, n) }
`,
		"hot/hot.go": `package hot

import "example.com/factmod/dep"

//detlint:hotpath witness=BenchmarkHot
func Plain(n int) []int { return dep.Alloc(n) }

//detlint:hotpath witness=BenchmarkHot
func Method(t *dep.T, n int) []int { return t.Alloc(n) }

//detlint:hotpath witness=BenchmarkHot
func GenericMethod(g *dep.G[float64], n int) []float64 { return g.Make(n) }

//detlint:hotpath witness=BenchmarkHot
func GenericFunc(n int) []float64 { return dep.Gen[float64](n) }
`,
	})
	findings, _, err := lint(dir, []string{"./..."}, nil, nil)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	flagged := make(map[string]bool)
	for _, f := range findings {
		if f.Analyzer != "hotalloc" || filepath.Base(f.Pos.Filename) != "hot.go" {
			t.Errorf("unexpected finding: %s [%s] %s", f.Pos, f.Analyzer, f.Message)
			continue
		}
		if !strings.Contains(f.Message, "may allocate") {
			t.Errorf("hot.go finding is not a cross-package call: %s", f.Message)
		}
		for _, fn := range []string{"Plain", "Method", "GenericMethod", "GenericFunc"} {
			if strings.HasSuffix(f.Message, "in hotpath function "+fn) {
				flagged[fn] = true
			}
		}
	}
	for _, fn := range []string{"Plain", "Method", "GenericMethod", "GenericFunc"} {
		if !flagged[fn] {
			t.Errorf("hot call in %s into an allocating dep function was not flagged", fn)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings encode as %q, want []", got)
	}

	buf.Reset()
	in := []detlint.Finding{{Analyzer: "maporder", Message: "boom"}}
	in[0].Pos.Filename = "x.go"
	in[0].Pos.Line = 3
	in[0].Pos.Column = 7
	if err := writeJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []jsonFinding
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 1 || out[0].Analyzer != "maporder" || out[0].Line != 3 || out[0].Column != 7 || out[0].Message != "boom" {
		t.Errorf("round-trip mismatch: %+v", out)
	}
}

// TestBenchPrintsTimingLine runs the driver as main does, on a module with
// findings: -bench must add one JSON line on stderr, timed through the
// injected clock, and leave stdout as it is, in text and in -json mode.
func TestBenchPrintsTimingLine(t *testing.T) {
	t.Chdir(writeModule(t, map[string]string{
		"go.mod": "module example.com/benchmod\n\ngo 1.24\n",
		"dirty/dirty.go": `package dirty

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	}))
	var fake time.Time
	clock := func() time.Time { fake = fake.Add(time.Microsecond); return fake }
	drive := func(args ...string) (stdout, stderr string) {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut, clock); code != 1 {
			t.Fatalf("%v: exit %d, want 1 (findings)\nstderr: %s", args, code, errOut.String())
		}
		return out.String(), errOut.String()
	}

	// Every analyzer that runs on a package reports its time, helper
	// passes required by the suite included.
	ran := make(map[string]bool)
	var visit func(a *analysis.Analyzer)
	visit = func(a *analysis.Analyzer) {
		if !ran[a.Name] {
			ran[a.Name] = true
			for _, req := range a.Requires {
				visit(req)
			}
		}
	}
	for _, a := range suite.All() {
		visit(a)
	}

	for _, mode := range [][]string{nil, {"-json"}} {
		plain, plainErr := drive(append(mode, "./...")...)
		timed, line := drive(append(mode, "-bench", "./...")...)
		if !strings.Contains(plain, "detsource") {
			t.Fatalf("%v: no finding on stdout:\n%s", mode, plain)
		}
		if timed != plain {
			t.Errorf("%v: -bench changed stdout:\n%s\nwant:\n%s", mode, timed, plain)
		}
		if plainErr != "" {
			t.Errorf("%v: stderr without -bench: %q", mode, plainErr)
		}
		if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
			t.Fatalf("%v: -bench stderr is not one line: %q", mode, line)
		}
		var got benchLine
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%v: -bench line %q: %v", mode, line, err)
		}
		if got.NSPerPkg <= 0 {
			t.Errorf("%v: detlint_ns_per_pkg = %v, want > 0", mode, got.NSPerPkg)
		}
		if len(got.AnalyzerNSPerPkg) != len(ran) {
			t.Errorf("%v: detlint_analyzer_ns_per_pkg has %d entries, want %d: %v", mode, len(got.AnalyzerNSPerPkg), len(ran), got.AnalyzerNSPerPkg)
		}
		for name := range ran {
			if got.AnalyzerNSPerPkg[name] <= 0 {
				t.Errorf("%v: analyzer %s timed %v ns/pkg, want > 0", mode, name, got.AnalyzerNSPerPkg[name])
			}
		}
	}
}
