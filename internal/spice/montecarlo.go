package spice

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/dramstudy/rhvpp/internal/pool"
	"github.com/dramstudy/rhvpp/internal/rng"
	"github.com/dramstudy/rhvpp/internal/stats"
)

// MCResult aggregates a Monte-Carlo campaign at one VPP level. The
// distributions are streaming accumulators, not sample slices: each run
// folds into them as it completes, so campaign memory is independent of the
// run count (the measurements land on the fixed integration-step grid, so
// the exact-quantile multiset is bounded by the grid, not by Runs).
type MCResult struct {
	VPP float64
	// TRCDmin and TRASmin summarize the per-run measurements of runs whose
	// activation completed reliably / whose restoration completed: mean,
	// extremes, and exact percentiles of the tRCDmin / tRASmin populations
	// of Figs. 8b and 9b.
	TRCDmin stats.Dist
	TRASmin stats.Dist
	// Unreliable counts runs whose bitline never crossed the read
	// threshold (e.g. the sense amplifier latched the wrong way under
	// mismatch at very low VPP).
	Unreliable int
	// Unrestored counts runs whose charge restoration did not complete
	// within the horizon.
	Unrestored int
	// NoConverge counts runs whose Newton iteration failed to converge.
	// Such runs yield no trustworthy measurement, so they are also counted
	// as Unreliable and Unrestored — exactly the low-VPP regime the Fig.
	// 8b/9b distributions care about, which is why a diverging sample must
	// not abort the whole campaign.
	NoConverge int
	Runs       int
}

// record classifies one run's outcome into the campaign aggregates.
//
//detlint:hotpath witness=TestMCAggregationAllocsIndependentOfRuns
func (r *MCResult) record(out ActivationResult, noConverge bool) {
	if noConverge {
		r.NoConverge++
		r.Unreliable++
		r.Unrestored++
		return
	}
	if out.Reliable {
		r.TRCDmin.Add(out.TRCDminNS)
	} else {
		r.Unreliable++
	}
	if out.Restored {
		r.TRASmin.Add(out.TRASminNS)
	} else {
		r.Unrestored++
	}
}

// Merge folds another partial result at the SAME VPP level into r, in run
// order: r must hold the earlier run range and o the later one. It exists for
// sharded campaigns that split one level's runs across processes; because the
// distribution accumulators merge exactly (and the mean's float summation
// order is fixed by the merge order), merging per-range partials in run order
// reproduces the single-process level result. Levels are distinct populations
// by construction, so merging across different VPPs is an error.
func (r *MCResult) Merge(o MCResult) error {
	if r.VPP != o.VPP {
		return fmt.Errorf("spice: merging MC results at different VPP levels %.2f and %.2f", r.VPP, o.VPP)
	}
	r.TRCDmin.Merge(o.TRCDmin)
	r.TRASmin.Merge(o.TRASmin)
	r.Unreliable += o.Unreliable
	r.Unrestored += o.Unrestored
	r.NoConverge += o.NoConverge
	r.Runs += o.Runs
	return nil
}

// Reliable returns the number of runs with a reliable activation.
func (r MCResult) Reliable() int { return r.TRCDmin.N() }

// Restored returns the number of runs whose restoration completed.
func (r MCResult) Restored() int { return r.TRASmin.N() }

// WorstTRCDminNS returns the largest observed reliable tRCDmin (the
// worst-case line of Fig. 8b), or 0 when no run was reliable.
func (r MCResult) WorstTRCDminNS() float64 { return r.TRCDmin.Max() }

// MeanTRCDminNS returns the mean reliable tRCDmin, or 0 when none.
func (r MCResult) MeanTRCDminNS() float64 { return r.TRCDmin.Mean() }

// ReliableFraction is the fraction of runs with a reliable activation.
func (r MCResult) ReliableFraction() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.TRCDmin.N()) / float64(r.Runs)
}

// Vary applies a uniform relative variation of up to ±frac to the
// process-dependent parameters of p, drawing from the stream. This is the
// paper's ±5% Monte-Carlo component variation (§4.5).
func Vary(p CellParams, s *rng.Stream, frac float64) CellParams {
	u := func(v float64) float64 { return v * (1 + s.Uniform(-frac, frac)) }
	p.CellC = u(p.CellC)
	p.CellR = u(p.CellR)
	p.BLC = u(p.BLC)
	p.BLR = u(p.BLR)
	p.Access.W = u(p.Access.W)
	p.Access.L = u(p.Access.L)
	p.Access.VT0 = u(p.Access.VT0)
	p.Access.KP = u(p.Access.KP)
	for _, m := range []*MOSParams{&p.SAN1, &p.SAN2, &p.SAP1, &p.SAP2} {
		m.W = u(m.W)
		m.L = u(m.L)
		m.VT0 = u(m.VT0)
		m.KP = u(m.KP)
	}
	return p
}

// MCConfig parameterizes a Monte-Carlo campaign, repeated by
// RunMonteCarloSweep at each VPP level of a sweep.
type MCConfig struct {
	// Runs is the campaign size per VPP level (the paper runs 10K).
	Runs int
	// Seed selects the sampled device population.
	Seed uint64
	// Variation is the relative component spread (the paper's ±5% is 0.05).
	Variation float64
	// Jobs bounds how many runs simulate concurrently (0 = one worker per
	// CPU). Every run draws from its own index-derived RNG stream and runs
	// fold into the aggregates in index order through a bounded reorder
	// window, so the result is byte-identical at any worker count.
	Jobs int
}

// jobs resolves the worker bound.
func (c MCConfig) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// mcRun is one sample's outcome, delivered to the aggregation fold in index
// order so the result never depends on worker scheduling.
type mcRun struct {
	out        ActivationResult
	noConverge bool
}

// RunMonteCarloSweep executes one Monte-Carlo campaign of cfg.Runs runs per
// entry of vpps (one level is a one-entry sweep) over a SINGLE global run
// queue: all levels' runs feed one bounded worker pool, so workers stay busy
// across level boundaries even when a slowly-converging low-VPP level would
// otherwise drain a per-level pool. Each worker reuses one simulation
// Workspace across runs (parameters are re-stamped instead of rebuilding the
// netlist and solver).
//
// Every run draws from its own per-level, per-index RNG stream, and runs
// fold into the per-level accumulators in strict (level, run) index order
// through pool.RunOrdered, so the sweep is byte-identical to running the
// levels one at a time — at any worker count — while aggregation memory
// stays independent of the total run count.
//
// Runs that fail to converge are recorded in MCResult.NoConverge (and
// counted unreliable/unrestored) rather than aborting the campaign; any
// other simulation failure — e.g. a singular system from degenerate
// parameters — is a genuine error.
func RunMonteCarloSweep(ctx context.Context, vpps []float64, cfg MCConfig) ([]MCResult, error) {
	results := make([]MCResult, len(vpps))
	roots := make([]*rng.Stream, len(vpps))
	for li, vpp := range vpps {
		results[li] = MCResult{VPP: vpp, Runs: cfg.Runs}
		roots[li] = rng.New(cfg.Seed).Derive("spice-mc", fmt.Sprintf("%.2f", vpp))
	}
	if cfg.Runs <= 0 {
		return results, ctx.Err()
	}

	// One reusable Workspace per worker. sync.Pool keeps a workspace warm
	// per P; results cannot depend on which workspace serves which run
	// because Workspace.Simulate is bit-identical to a fresh simulation.
	var workspaces sync.Pool
	sim := func(p CellParams) (ActivationResult, error) {
		ws, _ := workspaces.Get().(*Workspace)
		if ws == nil {
			ws = NewWorkspace()
		}
		out, err := ws.Simulate(p, nil)
		workspaces.Put(ws)
		return out, err
	}

	n := len(vpps) * cfg.Runs
	err := pool.RunOrdered(ctx, cfg.jobs(), n,
		func(ctx context.Context, i int) (mcRun, error) {
			li, ri := i/cfg.Runs, i%cfg.Runs
			p := Vary(DefaultCellParams(vpps[li]), roots[li].Derive("run", ri), cfg.Variation)
			out, err := sim(p)
			switch {
			case errors.Is(err, ErrNoConverge):
				return mcRun{noConverge: true}, nil
			case err != nil:
				return mcRun{}, fmt.Errorf("vpp %.2f run %d: %w", vpps[li], ri, err)
			}
			return mcRun{out: out}, nil
		},
		func(i int, ro mcRun) error {
			results[i/cfg.Runs].record(ro.out, ro.noConverge)
			return nil
		})
	return results, err
}
