// Command rhvpp-bench is the campaign benchmark: four workloads, from the
// default-preset campaign to served traffic, each checked for correct output
// and reported as named metrics with units. Build and run it from the root of
// the repository through benchmark/run.sh:
//
//	bash benchmark/run.sh --workload campaign-default --seed 2022 --seconds 20 --trace 0
//	bash benchmark/run.sh --trace 1            # every workload, traced
//	bash benchmark/run.sh --runs 10            # repeat mode: medians, quartiles, spreads
//	bash benchmark/run.sh --smoke              # every workload once at golden-preset scale
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Untraced runs report the end-to-end metrics;
// traced runs (--trace 1) report the per-layer ones and write their spans to
// .bench_build/trace/. Any failed check makes the exit status non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := mainErr(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rhvpp-bench:", err)
		os.Exit(1)
	}
}

// errFailed reports a run whose result was printed but whose checks failed.
var errFailed = errors.New("correctness checks failed")

func mainErr(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rhvpp-bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run in this process (empty = every workload, one child process each)")
		seed    = fs.Uint64("seed", baseline.BaselineSeed, "workload seed: campaign seed of the batch workloads, request mix of serve-mixed")
		seconds = fs.Float64("seconds", baseline.RunSeconds, "how long one run measures")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out     = fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-<seed>.json)")
		runs    = fs.Int("runs", 0, "repeat mode: run every workload N times in a row with seeds seed..seed+N-1 and summarize each metric")
		against = fs.String("compare", "", "with -runs: a recorded summary (or benchmark/baseline.json's last set) to diff medians against")
		smoke   = fs.Bool("smoke", false, "run every workload once, traced and untraced, at golden-preset scale")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *out, root: ".", setups: 3}
	switch {
	case *smoke:
		return runSmoke(ctx, cfg, filepath.Join(cfg.root, ".bench_build", "trace"), os.Stdout)
	case *runs > 0:
		return repeat(ctx, cfg, *runs, *against)
	case *name == "":
		results := make(map[string]*result)
		for _, w := range workloadNames() {
			cfg.workload = w
			res, err := child(ctx, cfg)
			if err != nil {
				return err
			}
			results[w] = res
		}
		return printAll(results)
	}
	if _, err := lookupWorkload(cfg.workload); err != nil {
		return err
	}
	if cfg.traced {
		cfg.setups = 1
		if cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(cfg.root, ".bench_build", "trace", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
		}
	}
	res, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	return printResult(os.Stdout, cfg.workload, res)
}

// printResult prints every metric with its unit, then the result line.
func printResult(w io.Writer, workload string, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-18s %-36s %16.6g %s\n", workload, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return errFailed
	}
	return nil
}

// printAll prints the results of every workload as one line, keyed by name.
func printAll(results map[string]*result) error {
	failed := false
	for _, res := range results {
		failed = failed || !res.Correct
	}
	line, err := json.Marshal(results)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed {
		return errFailed
	}
	return nil
}

// child runs one workload in a fresh process of this binary, streaming its
// report through, and returns the result from its last line.
func child(ctx context.Context, cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0"}
	if cfg.traced {
		args[len(args)-1] = "1"
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	for _, ln := range lines[:len(lines)-1] {
		fmt.Println(string(ln))
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: %v (exit: %v)", cfg.workload, cfg.seed, err, runErr)
	}
	if runErr != nil && res.Correct {
		return nil, fmt.Errorf("%s seed %d: %w", cfg.workload, cfg.seed, runErr)
	}
	return &res, nil
}

// runSmoke runs every workload untraced and traced at golden-preset scale in
// this process, for a fast end-to-end check of the harness itself.
func runSmoke(ctx context.Context, cfg config, traceDir string, out io.Writer) error {
	cfg.smoke, cfg.seconds, cfg.setups = true, 0.5, 1
	failed := false
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.traced = w, traced
			c.traceOut = filepath.Join(traceDir, "smoke-"+w+".json")
			res, err := run(ctx, c)
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			if err := printResult(out, w, res); errors.Is(err, errFailed) {
				failed = true
			} else if err != nil {
				return err
			}
		}
	}
	if failed {
		return errFailed
	}
	return nil
}
