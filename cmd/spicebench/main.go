// Command spicebench measures the SPICE solver's headline throughput —
// transient step cost and Monte-Carlo runs per second — and writes a JSON
// snapshot. CI runs it on every change so the perf trajectory of the
// hottest path in the repository is recorded next to the code
// (BENCH_spice.json at the repository root holds the latest committed
// snapshot).
//
//	spicebench -out BENCH_spice.json
//	spicebench -runs 64 -jobs 4
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/rng"
	"github.com/dramstudy/rhvpp/internal/spice"
)

// Snapshot is the serialized benchmark result.
type Snapshot struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	// Transient-step throughput on the Table 2 netlist at nominal VPP.
	// "Per step" means per base-grid cell covered, so the adaptive figure
	// folds the coarse-stepping reduction in.
	StepNSAdaptive    float64 `json:"transient_step_ns_adaptive"`
	StepNSIncremental float64 `json:"transient_step_ns_incremental"`

	// Adaptive step-count reduction over the Fig. 8a/9a sweep (all nine
	// VPP levels): implicit solves saved overall, and cells-per-solve on
	// the quiescent stretches alone (the accepted coarse steps) — the
	// acceptance floor for the latter is 3x.
	AdaptiveStepReduction      float64 `json:"adaptive_step_reduction_sweep"`
	AdaptiveQuiescentReduction float64 `json:"adaptive_quiescent_step_reduction"`

	// Newton iterations per implicit solve over a Monte-Carlo population
	// drawn as the campaign draws it (seed 2022, ±5% variation, -runs runs
	// per level), summed over the same nine-level sweep under the default
	// adaptive engine: the count the Newton predictor exists to shrink.
	MCNewtonItersPerSolve float64 `json:"mc_newton_iters_per_solve"`

	// Monte-Carlo campaign throughput at 2.0 V, ±5% variation: one worker
	// (best of 3 timed runs) and MCJobs workers (best of timedSweeps).
	MCRunsPerSecJobs1 float64 `json:"mc_runs_per_sec_jobs1"`
	MCRunsPerSecJobs  float64 `json:"mc_runs_per_sec_jobs"`
	MCJobs            int     `json:"mc_jobs"`

	// Full Fig. 8b/9b-style aggregate: one global run queue across a VPP
	// sweep, streaming aggregation, per-worker workspace reuse. The rate is
	// the best of timedSweeps sweeps. BytesPerRun is the heap allocation of
	// one run of the sweep's per-run work on an already-built Workspace —
	// the streaming-statistics memory-bound metric (pre-streaming,
	// aggregation bytes grew with every retained sample; now the bytes are
	// simulation transients only). Building a sweep's Workspaces is a cost
	// of the sweep call, not of a run, so it is left out.
	MCAggRunsPerSec  float64 `json:"mc_agg_runs_per_sec"`
	MCAggLevels      int     `json:"mc_agg_levels"`
	MCAggBytesPerRun float64 `json:"mc_agg_bytes_per_run"`

	// Sharded campaign pipeline end to end: the full SPICE Monte-Carlo study
	// split into 2 shard artifacts (plan -> run -> encode), file-decoded and
	// merged back into a rendered-ready campaign. Runs/s over the whole
	// pipeline, so the serialization + merge overhead of sharding is visible
	// next to the raw in-process MC throughput above.
	ShardMergeRunsPerSec float64 `json:"shard_merge_runs_per_sec"`
	ShardMergeShards     int     `json:"shard_merge_shards"`

	// DetlintNSPerPkg is the static-analysis suite's cost (wall time per
	// package of a clean full-repo run), recorded by `detlint -bench` into
	// the same snapshot. spicebench does not measure it; it carries the
	// last recorded value through its own rewrites so the field survives a
	// baseline refresh.
	DetlintNSPerPkg float64 `json:"detlint_ns_per_pkg,omitempty"`
	// DetlintAnalyzerNSPerPkg is the per-analyzer breakdown of the same
	// run, keyed by analyzer name; carried through rewrites like the
	// total.
	DetlintAnalyzerNSPerPkg map[string]float64 `json:"detlint_analyzer_ns_per_pkg,omitempty"`
}

func main() {
	var (
		out  = flag.String("out", "", "write the JSON snapshot to this file (default stdout)")
		runs = flag.Int("runs", 48, "Monte-Carlo runs per measurement")
		jobs = flag.Int("jobs", 4, "worker count for the parallel Monte-Carlo measurement")
	)
	flag.Parse()

	snap, err := measure(*runs, *jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spicebench:", err)
		os.Exit(1)
	}
	if *out != "" {
		// Refreshing a committed baseline must not drop the fields other
		// tools recorded into it (detlint -bench).
		if prev, err := os.ReadFile(*out); err == nil {
			var old Snapshot
			if json.Unmarshal(prev, &old) == nil {
				snap.DetlintNSPerPkg = old.DetlintNSPerPkg
				snap.DetlintAnalyzerNSPerPkg = old.DetlintAnalyzerNSPerPkg
			}
		}
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spicebench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(enc); err != nil {
			fmt.Fprintln(os.Stderr, "spicebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "spicebench:", err)
		os.Exit(1)
	}
}

func measure(runs, jobs int) (Snapshot, error) {
	snap := Snapshot{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		MCJobs:    jobs,
	}

	// Transient step cost: one full nominal-VPP activation per stepping mode,
	// repeated until the measurement is stable enough to quote.
	var err error
	snap.StepNSAdaptive, err = stepCost(spice.SimulateActivation)
	if err != nil {
		return snap, err
	}
	snap.StepNSIncremental, err = stepCost(fixedGridActivation)
	if err != nil {
		return snap, err
	}

	snap.AdaptiveStepReduction, snap.AdaptiveQuiescentReduction, err = adaptiveReduction()
	if err != nil {
		return snap, err
	}
	snap.MCNewtonItersPerSolve, err = newtonItersPerSolve(runs)
	if err != nil {
		return snap, err
	}

	one, err := bestOf(3, spice.MCConfig{Runs: runs, Jobs: 1})
	if err != nil {
		return snap, err
	}
	many, err := bestOf(timedSweeps, spice.MCConfig{Runs: runs, Jobs: jobs})
	if err != nil {
		return snap, err
	}
	snap.MCRunsPerSecJobs1 = one
	snap.MCRunsPerSecJobs = many

	aggRate, levels, err := mcAggregate(runs, jobs)
	if err != nil {
		return snap, err
	}
	snap.MCAggRunsPerSec = aggRate
	snap.MCAggLevels = levels
	snap.MCAggBytesPerRun, err = mcBytesPerRun(aggVPPs, runs)
	if err != nil {
		return snap, err
	}

	snap.ShardMergeShards = 2
	snap.ShardMergeRunsPerSec, err = shardMergeThroughput(runs, jobs, snap.ShardMergeShards)
	if err != nil {
		return snap, err
	}
	return snap, nil
}

// shardMergeThroughput times the sharded-campaign pipeline end to end for
// the SPICE Monte-Carlo study: plan units, execute each shard, encode each
// artifact to bytes, decode them back (the file round trip), merge into a
// ready-to-render campaign. Returns total Monte-Carlo runs per second.
func shardMergeThroughput(runs, jobs, shards int) (float64, error) {
	o := rhvpp.DefaultOptions()
	o.SpiceMCRuns = runs
	o.Jobs = jobs
	units, err := rhvpp.PlanUnits(o, rhvpp.StudySpiceMC)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	start := time.Now() //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
	arts := make([]*rhvpp.ShardArtifact, shards)
	for i := range arts {
		part, err := rhvpp.ShardUnits(units, i, shards)
		if err != nil {
			return 0, err
		}
		art, err := rhvpp.RunShard(ctx, o, i, shards, part)
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := rhvpp.EncodeArtifact(&buf, art); err != nil {
			return 0, err
		}
		if arts[i], err = rhvpp.DecodeArtifact(&buf); err != nil {
			return 0, err
		}
	}
	if _, err := rhvpp.MergeArtifacts(arts...); err != nil {
		return 0, err
	}
	total := float64(len(units) * runs)
	return total / time.Since(start).Seconds(), nil //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
}

// timedSweeps is how many timed measurements the multi-worker Monte-Carlo
// keys and the step costs take the best of: one measurement is a few tens of
// milliseconds, and on a shared machine single samples of the same binary
// spread by 2x.
const timedSweeps = 5

// aggVPPs are the levels of the aggregate Monte-Carlo measurements.
var aggVPPs = []float64{2.5, 2.1, 1.9, 1.7}

// mcAggregate measures the streaming aggregation pipeline end to end: a
// multi-level sweep through the single global run queue, reporting the best
// runs/s of timedSweeps sweeps.
func mcAggregate(runs, jobs int) (runsPerSec float64, levels int, err error) {
	cfg := spice.MCConfig{Runs: runs, Seed: 2022, Variation: 0.05, Jobs: jobs}
	ctx := context.Background()
	warm := cfg
	warm.Runs = 2
	if _, err := spice.RunMonteCarloSweep(ctx, aggVPPs, warm); err != nil {
		return 0, 0, err
	}
	total := float64(len(aggVPPs) * runs)
	for range timedSweeps {
		start := time.Now() //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
		if _, err := spice.RunMonteCarloSweep(ctx, aggVPPs, cfg); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start).Seconds() //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
		runsPerSec = max(runsPerSec, total/elapsed)
	}
	return runsPerSec, len(aggVPPs), nil
}

// mcBytesPerRun returns the heap bytes per run of the sweep's per-run work:
// draw the run's parameters from the stream RunMonteCarloSweep derives for
// it, simulate them on a Workspace built and warmed beforehand, and fold the
// outcome into the level's tRCDmin/tRASmin accumulators as the sweep does.
func mcBytesPerRun(vpps []float64, runs int) (float64, error) {
	ws := spice.NewWorkspace()
	results := make([]spice.MCResult, len(vpps))
	roots := make([]*rng.Stream, len(vpps))
	for li, vpp := range vpps {
		roots[li] = rng.New(2022).Derive("spice-mc", fmt.Sprintf("%.2f", vpp))
	}
	run := func(li, i int) error {
		out, err := ws.Simulate(spice.Vary(spice.DefaultCellParams(vpps[li]), roots[li].Derive("run", i), 0.05), nil)
		r := &results[li]
		switch {
		case errors.Is(err, spice.ErrNoConverge):
			r.NoConverge++
		case err != nil:
			return fmt.Errorf("Monte-Carlo run %d at %.1fV: %w", i, vpps[li], err)
		default:
			if out.Reliable {
				r.TRCDmin.Add(out.TRCDminNS)
			}
			if out.Restored {
				r.TRASmin.Add(out.TRASminNS)
			}
		}
		return nil
	}
	for li := range vpps { // warm-up: the Workspace and every level's accumulators
		if err := run(li, 0); err != nil {
			return 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for li := range vpps {
		for i := 1; i <= runs; i++ {
			if err := run(li, i); err != nil {
				return 0, err
			}
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(vpps)*runs), nil
}

// fixedGridActivation is SimulateActivation pinned to the fixed 25 ps grid.
func fixedGridActivation(p spice.CellParams, probe spice.Probe) (spice.ActivationResult, error) {
	p.Adaptive = false
	return spice.SimulateActivation(p, probe)
}

// stepCost returns wall ns per base-grid cell covered (an adaptive engine
// covers cells with fewer solves, so its figure reflects the step-count
// reduction): the best of timedSweeps timings, each of activations repeated
// for ~40 ms, because on a shared machine one timing follows host load.
func stepCost(sim func(spice.CellParams, spice.Probe) (spice.ActivationResult, error)) (float64, error) {
	p := spice.DefaultCellParams(2.5)
	best := math.Inf(1)
	for range timedSweeps {
		cells := 0
		start := time.Now()                           //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
		for time.Since(start) < 40*time.Millisecond { //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
			res, err := sim(p, nil)
			if err != nil {
				return 0, err
			}
			cells += res.Steps.Cells
		}
		if cells == 0 {
			return 0, fmt.Errorf("no steps executed")
		}
		best = min(best, float64(time.Since(start).Nanoseconds())/float64(cells)) //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
	}
	return best, nil
}

// sweepVPPs are the Fig. 8/9 sweep levels.
var sweepVPPs = []float64{2.5, 2.4, 2.3, 2.2, 2.1, 2.0, 1.9, 1.8, 1.7}

// adaptiveReduction aggregates the adaptive engine's step accounting over
// the Fig. 8a/9a sweep: total solve reduction vs the fixed grid, and
// cells-per-solve over the accepted coarse steps (the quiescent stretches).
func adaptiveReduction() (overall, quiescent float64, err error) {
	var solves, cells, coarseCells, coarseSolves int
	for _, vpp := range sweepVPPs {
		res, err := spice.SimulateActivation(spice.DefaultCellParams(vpp), nil)
		if err != nil {
			return 0, 0, fmt.Errorf("adaptive sweep at %.1fV: %w", vpp, err)
		}
		solves += res.Steps.Solves
		cells += res.Steps.Cells
		coarseCells += res.Steps.CoarseCells
		coarseSolves += res.Steps.CoarseSolves
	}
	return ratio(float64(cells), float64(solves)),
		ratio(float64(coarseCells), float64(coarseSolves)), nil
}

// newtonItersPerSolve returns total Newton iterations over total implicit
// solves for runs Monte-Carlo activations per sweep level, each drawn from
// the stream RunMonteCarloSweep derives for it. A run that fails to
// converge still counts the work it did.
func newtonItersPerSolve(runs int) (float64, error) {
	ws := spice.NewWorkspace()
	var iters, solves int
	for _, vpp := range sweepVPPs {
		root := rng.New(2022).Derive("spice-mc", fmt.Sprintf("%.2f", vpp))
		for i := 0; i < runs; i++ {
			p := spice.Vary(spice.DefaultCellParams(vpp), root.Derive("run", i), 0.05)
			res, err := ws.Simulate(p, nil)
			if err != nil && !errors.Is(err, spice.ErrNoConverge) {
				return 0, fmt.Errorf("Monte-Carlo run %d at %.1fV: %w", i, vpp, err)
			}
			iters += res.Steps.NewtonIters
			solves += res.Steps.Solves
		}
	}
	return ratio(float64(iters), float64(solves)), nil
}

// bestOf returns the fastest of n mcThroughput measurements: one measurement
// is a short wall-clock timing, and on a busy machine a single descheduling
// stall would dominate it.
func bestOf(n int, cfg spice.MCConfig) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		rate, err := mcThroughput(cfg)
		if err != nil {
			return 0, err
		}
		if rate > best {
			best = rate
		}
	}
	return best, nil
}

// mcThroughput returns Monte-Carlo runs per second for the configuration.
func mcThroughput(cfg spice.MCConfig) (float64, error) {
	cfg.VPP, cfg.Seed, cfg.Variation = 2.0, 2022, 0.05
	if _, err := spice.MonteCarlo(cfg.VPP, 2, cfg.Seed, cfg.Variation); err != nil { // warm-up
		return 0, err
	}
	start := time.Now() //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
	if _, err := spice.RunMonteCarlo(context.Background(), cfg); err != nil {
		return 0, err
	}
	return float64(cfg.Runs) / time.Since(start).Seconds(), nil //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
