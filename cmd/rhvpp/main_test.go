package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/dramstudy/rhvpp"
)

func TestListExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table3", "fig5", "fig10a", "ext-temp"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}
	// The listing carries titles and paper sections from the descriptors.
	for _, want := range []string{"Module RowHammer characteristics", "§5, Table 3", "rowhammer"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing descriptor text %q:\n%s", want, out)
		}
	}
}

// TestReadmeFlagTableMatchesFlags keeps README's CLI flag table and the
// flags run registers in step, in both directions.
func TestReadmeFlagTableMatchesFlags(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, cli, ok := strings.Cut(string(readme), "\n## CLI\n")
	if !ok {
		t.Fatal("README has no CLI section")
	}
	cli, _, _ = strings.Cut(cli, "\n## ")
	var documented []string
	for _, line := range strings.Split(cli, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `-"); ok {
			name, _, _ := strings.Cut(rest, "`")
			documented = append(documented, name)
		}
	}
	if len(documented) == 0 {
		t.Fatal("README's CLI section has no flag table rows")
	}
	var registered []string
	fs, _ := newRunFlags()
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })
	for _, name := range registered {
		if !slices.Contains(documented, name) {
			t.Errorf("flag -%s has no row in README's CLI flag table", name)
		}
	}
	for _, name := range documented {
		if !slices.Contains(registered, name) {
			t.Errorf("README's CLI flag table documents -%s, which rhvpp does not register", name)
		}
	}
}

func TestRetiredFlagsAreUnknown(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table2", "-full"},
		{"-exp", "fig8b", "-fixed-grid"},
		{"-exp", "fig8b", "-ltetol", "1e-6"},
		{"-exp", "all", "-procs", "2"},
		{"-exp", "all", "-shard-exec", "req.json"},
	} {
		var buf bytes.Buffer
		err := run(t.Context(), args, &buf)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[2]) {
			t.Errorf("%v: err = %v, want an undefined-flag error", args, err)
		}
	}
}

// TestNegativeCountFlagsAreUsageErrors pins that a negative count knob
// stops the CLI before any campaign runs, instead of printing the preset's
// campaign as if the flag were absent.
func TestNegativeCountFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table3", "-stride", "-1"},
		{"-exp", "table3", "-rows", "-2"},
		{"-exp", "table3", "-chunks", "-1"},
		{"-exp", "fig8b", "-mc", "-5"},
	} {
		var buf bytes.Buffer
		err := run(t.Context(), args, &buf)
		if err == nil || !strings.Contains(err.Error(), "invalid value \""+args[3]+"\" for flag "+args[2]) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: printed %d bytes", args, buf.Len())
		}
	}
}

func TestMissingExperimentFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), nil, &buf); err == nil {
		t.Error("missing -exp accepted")
	}
}

// TestUnknownExperiment pins one wording for an unknown id: a campaign run
// and a shard run both return rhvpp.LookupExperiment's error, the one the
// server's 400 carries, and print nothing.
func TestUnknownExperiment(t *testing.T) {
	_, want := rhvpp.LookupExperiment("nope")
	if want == nil {
		t.Fatal("LookupExperiment accepted nope")
	}
	for _, args := range [][]string{
		{"-exp", "nope"},
		{"-exp", "nope", "-shard", "0/2", "-artifact", filepath.Join(t.TempDir(), "s.json")},
	} {
		var buf bytes.Buffer
		err := run(t.Context(), args, &buf)
		if err == nil {
			t.Errorf("%v: unknown experiment accepted", args)
			continue
		}
		if err.Error() != want.Error() {
			t.Errorf("%v: err = %q, want %q", args, err, want)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: printed %q", args, buf.String())
		}
	}
}

func TestUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "table2", "-format", "yaml"}, &buf); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestUnknownModuleRejectedUpFront(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{"-exp", "table2", "-modules", "B3,QQ"}, &buf)
	if err == nil {
		t.Fatal("unknown module accepted")
	}
	if !strings.Contains(err.Error(), "QQ") {
		t.Errorf("error does not name the unknown module: %v", err)
	}
}

func TestRunTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "table2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "16.8 fF") {
		t.Errorf("table2 output wrong:\n%s", buf.String())
	}
}

func TestRunTable2JSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "table2", "-format", "json"}, &buf); err != nil {
		t.Fatal(err)
	}
	// Skip the "== table2 ==" banner, then expect one JSON object.
	out := buf.String()
	idx := strings.Index(out, "\n")
	var el struct {
		Kind    string     `json:"kind"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out[idx+1:]), &el); err != nil {
		t.Fatalf("output after banner is not JSON: %v\n%s", err, out)
	}
	if el.Kind != "table" || len(el.Rows) == 0 {
		t.Errorf("unexpected JSON element: %+v", el)
	}
}

func TestRunScopedExperimentWithFlags(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{"-exp", "summary", "-modules", "B3", "-rows", "3",
		"-chunks", "2", "-stride", "4", "-seed", "9", "-jobs", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "HCfirst") {
		t.Errorf("summary output wrong:\n%s", buf.String())
	}
}

func TestOutDirWritesFiles(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "table1", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "272") {
		t.Error("written file missing content")
	}
}

func TestOutDirUsesFormatExtension(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "table1", "-out", dir, "-format", "csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Mfr,#DIMMs") {
		t.Errorf("CSV output missing header:\n%s", data)
	}
}

// shardFlags is the scoped campaign the CLI shard tests run: one study,
// two small modules.
func shardFlags(extra ...string) []string {
	return append([]string{"-exp", "cv", "-modules", "B3,C0", "-rows", "3",
		"-chunks", "2", "-stride", "4"}, extra...)
}

func TestShardEmitsArtifactAndMergeRenders(t *testing.T) {
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.json")
	s1 := filepath.Join(dir, "s1.json")
	var buf bytes.Buffer
	if err := run(t.Context(), shardFlags("-shard", "0/2", "-artifact", s0), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote "+s0) {
		t.Errorf("shard run should report the artifact path:\n%s", buf.String())
	}
	if err := run(t.Context(), shardFlags("-shard", "1/2", "-artifact", s1), &buf); err != nil {
		t.Fatal(err)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("shard dir should hold exactly the two artifacts, got %v", entries)
	}

	// The merged rendering matches a direct single-process run.
	var direct bytes.Buffer
	if err := run(t.Context(), shardFlags(), &direct); err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if err := run(t.Context(), []string{"merge", "-exp", "cv", s0, s1}, &merged); err != nil {
		t.Fatal(err)
	}
	if merged.String() != direct.String() {
		t.Errorf("merge output differs from direct run:\n--- merge ---\n%s\n--- direct ---\n%s",
			merged.String(), direct.String())
	}
}

func TestShardValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), shardFlags("-shard", "2/2"), &buf); err == nil {
		t.Error("out-of-range shard accepted")
	}
	for _, spec := range []string{"nope", "1/2/3", "1/2 ", "1/", "/2", "0x1/2"} {
		if err := run(t.Context(), shardFlags("-shard", spec), &buf); err == nil {
			t.Errorf("malformed shard spec %q accepted", spec)
		}
	}
	// Flags that would be silently dead in shard mode are rejected.
	for _, extra := range [][]string{
		{"-format", "json"}, {"-out", "/tmp/x"},
	} {
		args := append(shardFlags("-shard", "0/2"), extra...)
		if err := run(t.Context(), args, &buf); err == nil {
			t.Errorf("-shard with %v accepted", extra)
		}
	}
	// ...and so are their render-mode inverses.
	if err := run(t.Context(), shardFlags("-artifact", "/tmp/x.json"), &buf); err == nil {
		t.Error("-artifact without -shard accepted")
	}
	// An experiment with no shardable studies cannot be sharded.
	if err := run(t.Context(), []string{"-exp", "table1", "-shard", "0/2"}, &buf); err == nil {
		t.Error("shardless experiment accepted for -shard")
	}
}

// TestShardCanceledLeavesNoArtifact is the clean-interrupt satellite: a
// canceled shard run exits with the context error and writes nothing.
func TestShardCanceledLeavesNoArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var buf bytes.Buffer
	if err := run(ctx, shardFlags("-shard", "0/1", "-artifact", path), &buf); err == nil {
		t.Fatal("canceled shard run reported success")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("canceled shard left files behind: %v", entries)
	}
}

func TestMergeValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"merge"}, &buf); err == nil {
		t.Error("merge without artifacts accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"rhvpp/shard-artifact","version":99,"shard":0,"of":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(t.Context(), []string{"merge", bad}, &buf)
	if err == nil {
		t.Fatal("future-version artifact accepted")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("error should explain the version mismatch: %v", err)
	}
	// An incomplete shard set is rejected before any rendering.
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.json")
	if err := run(t.Context(), shardFlags("-shard", "0/2", "-artifact", s0), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"merge", s0}, &buf); err == nil {
		t.Error("incomplete shard set accepted")
	}
}

func TestPresetGoldenSelectsPinnedScope(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), []string{"-exp", "bogus", "-preset", "nope"}, &buf); err == nil {
		t.Error("unknown preset accepted")
	}
	// -preset golden plans the pinned module selection.
	dir := t.TempDir()
	path := filepath.Join(dir, "g.json")
	if err := run(t.Context(), []string{"-preset", "golden", "-exp", "cv", "-shard", "0/1", "-artifact", path}, &buf); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close() //detlint:ignore sinkerr read path; DecodeArtifact checks every read error
	art, err := rhvpp.DecodeArtifact(fh)
	if err != nil {
		t.Fatal(err)
	}
	want := len(rhvpp.GoldenOptions().ModuleNames)
	if len(art.Units) != want {
		t.Errorf("golden-preset CV shard has %d units, want %d", len(art.Units), want)
	}
}

// TestShardProgress: a shard run with a progress writer announces each of
// its studies with the shard's own unit count, then prints one done/total
// line per unit it executes.
func TestShardProgress(t *testing.T) {
	o := rhvpp.GoldenOptions()
	path := filepath.Join(t.TempDir(), "s0.json")
	var stdout, progress bytes.Buffer
	if err := runShard(t.Context(), o, "0/2", path, "cv", &stdout, &progress); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "(3 of 6 plan units)") {
		t.Fatalf("golden cv shard 0/2 should run 3 of 6 plan units:\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSuffix(progress.String(), "\n"), "\n")
	if len(lines) != 4 || lines[0] != "rhvpp: cv: 3 units" {
		t.Fatalf("want one announcement and 3 unit lines, got:\n%s", progress.String())
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "rhvpp: cv ") || !strings.Contains(line, "/3") {
			t.Errorf("unit line %q is not a cv done/3 line", line)
		}
	}
	if !strings.HasSuffix(lines[3], " 3/3") {
		t.Errorf("last unit line %q should report 3/3", lines[3])
	}
}
