package core

import (
	"context"
	"fmt"

	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/softmc"
	"github.com/dramstudy/rhvpp/internal/stats"
)

// Tester runs the characterization algorithms against one module through
// its controller. A Tester is not safe for concurrent use (neither is a
// memory channel).
type Tester struct {
	ctrl *softmc.Controller
	cfg  Config
	adj  mapping.AdjacencyMap // optional: probed adjacency overrides the scheme
	ctx  context.Context      // cancels the characterization loops
}

// NewTester builds a tester for a controller.
func NewTester(ctrl *softmc.Controller, cfg Config) *Tester {
	return &Tester{ctrl: ctrl, cfg: cfg, ctx: context.Background()}
}

// WithContext returns a tester whose characterization loops (HCfirst search,
// tRCD sweep, retention ladder, WCDP profiling) stop with the context's
// error once ctx is canceled. The controller and probed adjacency are
// shared with the receiver; a canceled sweep leaves the device in whatever
// state the last issued command produced, exactly like pulling the plug on
// the FPGA mid-run.
func (t *Tester) WithContext(ctx context.Context) *Tester {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Tester{ctrl: t.ctrl, cfg: t.cfg, adj: t.adj, ctx: ctx}
}

// interrupted reports the context's error, if any. The characterization
// loops call it at iteration boundaries so cancellation never tears a
// single DRAM command apart.
func (t *Tester) interrupted() error { return ctxErr(t.ctx) }

// ctxErr returns ctx.Err() once ctx is done and nil before. It polls Done
// without blocking, so a live context is never locked: Err takes the
// context's mutex, which every worker of a study's pool polls.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Controller returns the underlying controller.
func (t *Tester) Controller() *softmc.Controller { return t.ctrl }

// Config returns the methodology parameters in use.
func (t *Tester) Config() Config { return t.cfg }

// UseAdjacency installs a probed adjacency map (from reverse engineering);
// victims it resolves take precedence over the vendor's documented scheme.
func (t *Tester) UseAdjacency(adj mapping.AdjacencyMap) { t.adj = adj }

// AggressorsFor returns the two logical row addresses physically adjacent to
// the victim. Probed adjacency is preferred; the vendor's documented
// scrambling scheme (published by prior reverse-engineering work) is
// consulted only for victims the probe never resolved. A probed victim with
// fewer than two neighbors sits at a subarray boundary: it has no usable
// double-sided pair, and falling back to the scheme there would hammer a
// fabricated pair across the boundary — so it is an ErrNoAggressors error
// instead.
func (t *Tester) AggressorsFor(victim int) (lo, hi int, err error) {
	if t.adj != nil && t.adj.Probed(victim) {
		ns, nerr := t.adj.Neighbors(victim)
		if nerr != nil || len(ns) != 2 {
			return 0, 0, fmt.Errorf("victim %d: probed with %d neighbor(s): %w",
				victim, len(ns), ErrNoAggressors)
		}
		return ns[0], ns[1], nil
	}
	geom := t.ctrl.Module().Geometry()
	sch := t.ctrl.Module().Scheme()
	pv := sch.LogicalToPhysical(victim)
	sub := geom.SubarrayRows
	plo, phi := pv-1, pv+1
	if plo < 0 || phi >= geom.RowsPerBank || plo/sub != pv/sub || phi/sub != pv/sub {
		return 0, 0, fmt.Errorf("victim %d: %w", victim, ErrNoAggressors)
	}
	return sch.PhysicalToLogical(plo), sch.PhysicalToLogical(phi), nil
}

// MeasureBER performs one measure_BER step of Alg. 1: initialize the victim
// with the data pattern and the aggressors with its bitwise inverse, hammer
// double-sided hc times per aggressor, and return the victim's bit error
// rate.
func (t *Tester) MeasureBER(victim int, pat pattern.Kind, hc int) (float64, error) {
	aggLo, aggHi, err := t.AggressorsFor(victim)
	if err != nil {
		return 0, err
	}
	b := t.cfg.Bank
	if err := t.ctrl.InitializeRow(b, victim, pat.Byte()); err != nil {
		return 0, err
	}
	inv := pat.Inverse().Byte()
	if err := t.ctrl.InitializeRow(b, aggLo, inv); err != nil {
		return 0, err
	}
	if err := t.ctrl.InitializeRow(b, aggHi, inv); err != nil {
		return 0, err
	}
	if err := t.ctrl.HammerDoubleSided(b, aggLo, aggHi, hc); err != nil {
		return 0, err
	}
	// Read with the conservative safe latency: on modules whose tRCDmin
	// exceeds the nominal value at reduced VPP, a nominal-timing read would
	// corrupt data and masquerade as RowHammer flips.
	return t.berRowSafe(victim, pat)
}

// berRowSafe reads a row back at the safe latency and returns the fraction
// of its bits that differ from the pattern (compare_data).
func (t *Tester) berRowSafe(row int, pat pattern.Kind) (float64, error) {
	flips, err := t.ctrl.CountRowSafe(t.cfg.Bank, row, pat.Byte())
	if err != nil {
		return 0, err
	}
	bits := t.ctrl.Module().Geometry().Columns() * dram.BurstBytes * 8
	return float64(flips) / float64(bits), nil
}

// measureBEREach repeats MeasureBER n times, handing each per-iteration
// value to f as it is measured — the one iteration/interrupt/error loop
// behind both the raw-series and the streaming-summary forms.
func (t *Tester) measureBEREach(victim int, pat pattern.Kind, hc, n int, f func(float64)) error {
	for i := 0; i < n; i++ {
		if err := t.interrupted(); err != nil {
			return err
		}
		ber, err := t.MeasureBER(victim, pat, hc)
		if err != nil {
			return err
		}
		f(ber)
	}
	return nil
}

// MeasureBERSeries repeats MeasureBER n times and returns every per-
// iteration value. Callers that only need summary statistics should use
// MeasureBERStats, which does not retain the samples.
func (t *Tester) MeasureBERSeries(victim int, pat pattern.Kind, hc, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	if err := t.measureBEREach(victim, pat, hc, n, func(ber float64) {
		out = append(out, ber)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// MeasureBERStats repeats MeasureBER n times and folds every per-iteration
// value into a streaming distribution as it is measured — the §4.6
// coefficient-of-variation consumer's form of MeasureBERSeries, with no
// per-iteration sample retention.
func (t *Tester) MeasureBERStats(victim int, pat pattern.Kind, hc, n int) (stats.Dist, error) {
	var d stats.Dist
	err := t.measureBEREach(victim, pat, hc, n, d.Add)
	return d, err
}

// measureBERMax returns the maximum BER across iterations (the worst case
// the paper records).
func (t *Tester) measureBERMax(victim int, pat pattern.Kind, hc, iters int) (float64, error) {
	max := 0.0
	for i := 0; i < iters; i++ {
		if err := t.interrupted(); err != nil {
			return 0, err
		}
		ber, err := t.MeasureBER(victim, pat, hc)
		if err != nil {
			return 0, err
		}
		if ber > max {
			max = ber
		}
	}
	return max, nil
}

// HCFirstSearch runs the Alg. 1 divide-and-conquer search for the minimum
// hammer count at which the victim exhibits a bit flip, using the given data
// pattern and iteration count.
func (t *Tester) HCFirstSearch(victim int, pat pattern.Kind, iters int) (int, error) {
	return hcFirstSearch(t.ctx, t.cfg, func(hc int) (float64, error) {
		return t.measureBERMax(victim, pat, hc, iters)
	})
}

// verifyWalkSteps bounds the post-bisection repair walk. Under a monotone
// flip response the bisection's final candidate lies within twice the step
// floor of the true boundary (the sum of the steps it never applied), so
// two grains cover the systematic error and the rest absorb measurement
// noise.
const verifyWalkSteps = 4

// hcFirstSearch is the Alg. 1 search over an abstract measurement, so the
// algorithm can be regression-tested against synthetic flip thresholds
// without a simulated module behind it.
//
// The divide-and-conquer loop halves its step after every probe but never
// re-measures the candidate it finally lands on: the last adjustment is
// applied blindly, so the returned count could sit below every hammer count
// that ever flipped (or above every count that stayed clean) — reporting an
// HCfirst at which no flip was observed. The verification pass re-measures
// the candidate and walks it to the lowest flipping count on the MinHCStep
// grid.
func hcFirstSearch(ctx context.Context, cfg Config, measure func(hc int) (float64, error)) (int, error) {
	hc := cfg.RefHC
	step := cfg.InitialHCStep
	for step > cfg.MinHCStep {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		berMax, err := measure(hc)
		if err != nil {
			return 0, err
		}
		if berMax == 0 {
			hc += step
		} else {
			hc -= step
		}
		step /= 2
	}
	grain := cfg.MinHCStep
	if grain < 1 {
		grain = 1
	}
	if hc < 1 {
		hc = 1
	}

	// Verification pass: confirm the candidate actually flips, then refine
	// to the lowest flipping count reachable on the grain grid.
	berMax, err := measure(hc)
	if err != nil {
		return 0, err
	}
	if berMax == 0 {
		// Undershoot: step up to the first count that flips. If nothing in
		// reach flips, the row is stronger than the search resolution; the
		// ceiling estimate is all Alg. 1 can report.
		for i := 0; i < verifyWalkSteps; i++ {
			if err := ctxErr(ctx); err != nil {
				return 0, err
			}
			berMax, err = measure(hc + grain)
			if err != nil {
				return 0, err
			}
			hc += grain
			if berMax > 0 {
				break
			}
		}
		return hc, nil
	}
	// Overshoot: step down while the next lower grid point still flips.
	for i := 0; i < verifyWalkSteps && hc > grain; i++ {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		below, err := measure(hc - grain)
		if err != nil {
			return 0, err
		}
		if below == 0 {
			break
		}
		hc -= grain
	}
	return hc, nil
}

// RowHammerResult is the per-row outcome of the Alg. 1 characterization.
type RowHammerResult struct {
	Row     int
	WCDP    pattern.Kind
	HCFirst int
	// BER is the worst-case bit error rate at the reference hammer count.
	BER float64
}

// SelectWCDP implements the §4.2 worst-case data pattern choice: the pattern
// with the lowest HCfirst, ties broken by the largest BER at the reference
// hammer count.
func (t *Tester) SelectWCDP(victim int) (pattern.Kind, error) {
	best := pattern.RowStripeFF
	bestHC := 0
	bestBER := -1.0
	first := true
	for _, k := range pattern.All() {
		if err := t.interrupted(); err != nil {
			return best, err
		}
		hc, err := t.HCFirstSearch(victim, k, t.cfg.WCDPIterations)
		if err != nil {
			return best, err
		}
		switch {
		case first || hc < bestHC:
			first = false
			best, bestHC = k, hc
			bestBER = -1 // recomputed lazily on ties only
		case hc == bestHC:
			if bestBER < 0 {
				ber, err := t.measureBERMax(victim, best, t.cfg.RefHC, t.cfg.WCDPIterations)
				if err != nil {
					return best, err
				}
				bestBER = ber
			}
			ber, err := t.measureBERMax(victim, k, t.cfg.RefHC, t.cfg.WCDPIterations)
			if err != nil {
				return best, err
			}
			if ber > bestBER {
				best, bestBER = k, ber
			}
		}
	}
	return best, nil
}

// CharacterizeRow runs the full Alg. 1 flow for one victim: WCDP selection
// (if not supplied), worst-case BER at the reference hammer count, and the
// HCfirst search.
func (t *Tester) CharacterizeRow(victim int, wcdp pattern.Kind) (RowHammerResult, error) {
	var err error
	if !wcdp.Valid() {
		wcdp, err = t.SelectWCDP(victim)
		if err != nil {
			return RowHammerResult{}, err
		}
	}
	ber, err := t.measureBERMax(victim, wcdp, t.cfg.RefHC, t.cfg.Iterations)
	if err != nil {
		return RowHammerResult{}, err
	}
	hcf, err := t.HCFirstSearch(victim, wcdp, t.cfg.Iterations)
	if err != nil {
		return RowHammerResult{}, err
	}
	return RowHammerResult{Row: victim, WCDP: wcdp, HCFirst: hcf, BER: ber}, nil
}
