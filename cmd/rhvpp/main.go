// Command rhvpp regenerates the paper's tables and figures from the
// simulated study. Each experiment id corresponds to one table/figure of the
// evaluation (`rhvpp -list` prints the full index). All ids run within one
// Campaign session, so experiments sharing a study (e.g. table3 and fig3-6)
// measure the hardware once; module sweeps run -jobs modules at a time with
// byte-identical output at any worker count, and ctrl-C (or SIGTERM) cancels
// the sweep cleanly — the process exits non-zero and never leaves a
// partially-written artifact behind.
//
//	rhvpp -list
//	rhvpp -exp table3
//	rhvpp -exp fig5 -modules B3,C0 -rows 8
//	rhvpp -exp fig8b -mc 1000 -format json
//	rhvpp -exp all -jobs 8 -out results/ -format csv
//
// Sharded campaigns split the study work units across processes or hosts and
// merge the artifacts back, byte-identical to a single-process run:
//
//	rhvpp -shard 0/2 -artifact s0.json     # on tester A
//	rhvpp -shard 1/2 -artifact s1.json     # on tester B
//	rhvpp merge -exp all s0.json s1.json   # anywhere
//
// -progress prints per-unit completion lines to stderr in both modes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/optparse"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		// Library errors already carry the program's prefix.
		msg := err.Error()
		if !strings.HasPrefix(msg, "rhvpp: ") {
			msg = "rhvpp: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

// outExt maps formats to output-file extensions for -out. Validation is the
// encoder's job (rhvpp.NewEncoder); this map only picks file names, so a
// format it doesn't know falls back to ".out".
var outExt = map[rhvpp.Format]string{
	rhvpp.FormatText: ".txt",
	rhvpp.FormatJSON: ".json",
	rhvpp.FormatCSV:  ".csv",
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "merge" {
		return runMerge(ctx, args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(ctx, args[1:], stdout)
	}

	fs, f := newRunFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *f.list {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		for _, e := range rhvpp.Experiments() {
			studies := make([]string, 0, len(e.Studies))
			for _, s := range e.Studies {
				studies = append(studies, string(s))
			}
			dep := "-"
			if len(studies) > 0 {
				dep = strings.Join(studies, ",")
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", e.ID, e.Title, e.Section, dep)
		}
		return tw.Flush()
	}

	o, err := rhvpp.PresetOptions(*f.preset)
	if err != nil {
		return err
	}
	f.ov.Apply(&o)

	if *f.artPath != "" && *f.shard == "" {
		return fmt.Errorf("-artifact is only written by -shard runs (add -shard i/n, or drop -artifact)")
	}
	var progress io.Writer
	if *f.progress {
		progress = os.Stderr
	}
	if *f.shard != "" {
		// A shard run emits an artifact, not rendered output: flags that
		// only shape rendering would be silently dead here, so reject the
		// contradiction instead.
		var conflicts []string
		fs.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "format", "out":
				conflicts = append(conflicts, "-"+fl.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("-shard contradicts %s (a shard writes an artifact; render via `rhvpp merge`)",
				strings.Join(conflicts, ", "))
		}
		return runShard(ctx, o, *f.shard, *f.artPath, *f.exp, stdout, progress)
	}

	if *f.exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (use -list to see experiment ids)")
	}
	format := rhvpp.Format(*f.format)
	if _, err := rhvpp.NewEncoder(format, io.Discard); err != nil {
		return err
	}
	ids, err := expandIDs(*f.exp)
	if err != nil {
		return err
	}

	c, err := rhvpp.NewCampaign(o)
	if err != nil {
		return err
	}
	c.WithProgress(printProgress(progress))
	return renderExperiments(ctx, c, ids, format, *f.outDir, stdout)
}

// runFlags are the flags of a campaign run; `rhvpp merge` and `rhvpp serve`
// parse their own.
type runFlags struct {
	ov                                          optparse.Overrides
	exp, format, preset, outDir, shard, artPath *string
	list, progress                              *bool
}

// newRunFlags registers the campaign-run flags on a fresh flag set.
func newRunFlags() (*flag.FlagSet, *runFlags) {
	fs := flag.NewFlagSet("rhvpp", flag.ContinueOnError)
	f := &runFlags{
		exp:      fs.String("exp", "", "experiment id to run (or 'all'); see -list"),
		list:     fs.Bool("list", false, "list experiment ids with titles and paper sections, then exit"),
		format:   fs.String("format", "text", "output format: text, json, or csv"),
		preset:   fs.String("preset", "", "campaign preset: default, paper, or golden (the pinned regression scope)"),
		outDir:   fs.String("out", "", "write each experiment's output to <out>/<id>.<ext> instead of stdout"),
		progress: fs.Bool("progress", false, "print per-unit completion lines to stderr while studies run"),
		shard:    fs.String("shard", "", "run shard i/n of the campaign work units and write a shard artifact (e.g. -shard 0/2)"),
		artPath:  fs.String("artifact", "", "shard artifact output path (with -shard; default shard-<i>-of-<n>.json)"),
	}
	f.ov.Flags(fs) // the campaign knobs shared with `rhvpp serve` query params
	return fs, f
}

// printProgress returns a progress hook writing one line to w per study
// announcement and per completed work unit, or nil for a nil w. Module-sweep
// events arrive concurrently from the worker pool, so the hook serializes
// writes to keep lines whole.
func printProgress(w io.Writer) rhvpp.ProgressFunc {
	if w == nil {
		return nil
	}
	var mu sync.Mutex
	return func(ev rhvpp.ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Key == "" {
			fmt.Fprintf(w, "rhvpp: %s: %d units\n", ev.Study, ev.Total)
			return
		}
		fmt.Fprintf(w, "rhvpp: %s %s %d/%d\n", ev.Study, ev.Key, ev.Done, ev.Total)
	}
}

// expandIDs resolves "all" to every experiment id in presentation order and
// rejects an unknown id before anything renders.
func expandIDs(exp string) ([]string, error) {
	if exp != "all" {
		if _, err := rhvpp.LookupExperiment(exp); err != nil {
			return nil, err
		}
		return []string{exp}, nil
	}
	var ids []string
	for _, e := range rhvpp.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids, nil
}

// renderExperiments renders each id through the campaign, with the same
// banner/stream layout for the local and merged paths.
func renderExperiments(ctx context.Context, c *rhvpp.Campaign, ids []string,
	f rhvpp.Format, outDir string, stdout io.Writer) error {
	ext, ok := outExt[f]
	if !ok {
		ext = ".out"
	}
	for _, id := range ids {
		w := stdout
		var fh *os.File
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			var err error
			fh, err = os.Create(filepath.Join(outDir, id+ext))
			if err != nil {
				return err
			}
			w = fh
		}
		fmt.Fprintf(stdout, "== %s ==\n", id)
		enc, err := rhvpp.NewEncoder(f, w)
		if err == nil {
			err = c.Run(ctx, id, enc)
		}
		if fh != nil {
			// A close failure on the output file is a lost short write;
			// surface it unless the experiment already failed.
			if cerr := fh.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	}
	return nil
}

// shardStudies resolves which studies a shard covers: every shardable study
// for "" or "all", otherwise the selected experiment's shardable studies.
func shardStudies(exp string) ([]rhvpp.Study, error) {
	if exp == "" || exp == "all" {
		return nil, nil // PlanUnits default: every shardable study
	}
	e, err := rhvpp.LookupExperiment(exp)
	if err != nil {
		return nil, err
	}
	shardable := make(map[rhvpp.Study]bool)
	for _, s := range rhvpp.ShardableStudies() {
		shardable[s] = true
	}
	var studies []rhvpp.Study
	for _, s := range e.Studies {
		if shardable[s] {
			studies = append(studies, s)
		}
	}
	if len(studies) == 0 {
		return nil, fmt.Errorf("experiment %s has no shardable studies; run it directly with -exp", exp)
	}
	return studies, nil
}

// parseShardSpec parses "i/n" strictly: both halves must be whole decimal
// numbers with nothing trailing, so a typo like "1/2/3" is rejected instead
// of silently running as shard 1 of 2.
func parseShardSpec(spec string) (shard, of int, err error) {
	i, n, ok := strings.Cut(spec, "/")
	if ok {
		shard, err = strconv.Atoi(i)
		if err == nil {
			of, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want i/n, e.g. 0/2", spec)
	}
	return shard, of, nil
}

// runShard executes this process's slice of the campaign plan and writes the
// artifact atomically: the JSON lands in a temp file in the target directory
// and is renamed into place only after a complete, successful run, so an
// interrupted or failed shard leaves no partial artifact behind. A non-nil
// progress writer receives the shard's progress lines.
func runShard(ctx context.Context, o rhvpp.Options, spec, path, exp string, stdout, progress io.Writer) error {
	shard, of, err := parseShardSpec(spec)
	if err != nil {
		return err
	}
	studies, err := shardStudies(exp)
	if err != nil {
		return err
	}
	units, err := rhvpp.PlanUnits(o, studies...)
	if err != nil {
		return err
	}
	mine, err := rhvpp.ShardUnits(units, shard, of)
	if err != nil {
		return err
	}
	art, err := rhvpp.RunShardObserved(ctx, o, shard, of, mine, printProgress(progress))
	if err != nil {
		return err
	}
	if path == "" {
		path = fmt.Sprintf("shard-%d-of-%d.json", shard, of)
	}
	if err := writeArtifactAtomic(path, art); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d of %d plan units)\n", path, len(mine), len(units))
	return nil
}

// writeArtifactAtomic encodes into a same-directory temp file and renames.
func writeArtifactAtomic(path string, art *rhvpp.ShardArtifact) error {
	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //detlint:ignore sinkerr best-effort temp cleanup, a no-op after a successful rename
	if err := rhvpp.EncodeArtifact(tmp, art); err != nil {
		tmp.Close() //detlint:ignore sinkerr already failing, the encode error is the one to surface
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// runMerge combines shard artifacts and renders experiments from the merged
// campaign. The campaign options come from the artifacts (all shards must
// match); only presentation flags apply here.
func runMerge(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rhvpp merge", flag.ContinueOnError)
	var (
		exp    = fs.String("exp", "all", "experiment id to render from the merged campaign (or 'all')")
		format = fs.String("format", "text", "output format: text, json, or csv")
		outDir = fs.String("out", "", "write each experiment's output to <out>/<id>.<ext> instead of stdout")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: rhvpp merge [-exp id] [-format f] [-out dir] shard0.json shard1.json ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		return fmt.Errorf("merge: no shard artifacts given")
	}
	f := rhvpp.Format(*format)
	if _, err := rhvpp.NewEncoder(f, io.Discard); err != nil {
		return err
	}
	ids, err := expandIDs(*exp)
	if err != nil {
		return err
	}
	arts := make([]*rhvpp.ShardArtifact, len(paths))
	for i, path := range paths {
		fh, err := os.Open(path)
		if err != nil {
			return err
		}
		arts[i], err = rhvpp.DecodeArtifact(fh)
		fh.Close() //detlint:ignore sinkerr read-only descriptor, the decode error is the one to surface
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	c, err := rhvpp.MergeArtifacts(arts...)
	if err != nil {
		return err
	}
	return renderExperiments(ctx, c, ids, f, *outDir, stdout)
}
