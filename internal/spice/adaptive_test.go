package spice

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/dramstudy/rhvpp/internal/rng"
)

// fixedGrid returns p with adaptive stepping disabled.
func fixedGrid(p CellParams) CellParams {
	p.Adaptive = false
	return p
}

// TestAdaptiveCrossingsMatchFixedGrid is the crossing-quantization property
// test: every measurement the adaptive engine reports — the tRCDmin and
// tRASmin threshold crossings quantized onto the 25 ps grid, and the
// reliable/restored classifications — must be IDENTICAL (bit-for-bit, not
// approximately) to the fixed-grid measurement, both on the Fig. 8a/9a
// waveforms at every sweep VPP and on Monte-Carlo populations at the golden
// seed 2022 and the holdout seed 7 (±5% variation, 200 runs per level). This
// is the property the campaign goldens' byte-identity rests on: identical
// crossing floats mean the exact streaming quantiles in internal/stats see
// the same multiset either way.
//
// The one exception is knownRestoreLag: a run whose adaptive restore
// crossing lands exactly one grid cell early. The test requires that exact
// lag there, so it fails both when another run diverges and when that run
// starts to match.
func TestAdaptiveCrossingsMatchFixedGrid(t *testing.T) {
	for _, vpp := range goldenSweepVPPs {
		p := DefaultCellParams(vpp)
		fast, err := SimulateActivation(p, nil)
		if err != nil {
			t.Fatalf("vpp=%v: adaptive: %v", vpp, err)
		}
		fixed, err := SimulateActivation(fixedGrid(p), nil)
		if err != nil {
			t.Fatalf("vpp=%v: fixed: %v", vpp, err)
		}
		assertSameMeasurement(t, fmt.Sprintf("vpp=%v", vpp), fast, fixed)
	}

	if testing.Short() {
		t.Skip("golden-population crossings in -short mode")
	}
	const runs = 200
	adaptive, fixed := NewWorkspace(), NewWorkspace()
	for _, seed := range []uint64{2022, 7} {
		for _, vpp := range goldenSweepVPPs {
			// The campaign's own derivation (RunMonteCarloSweep).
			root := rng.New(seed).Derive("spice-mc", fmt.Sprintf("%.2f", vpp))
			for i := 0; i < runs; i++ {
				p := Vary(DefaultCellParams(vpp), root.Derive("run", i), 0.05)
				fast, errA := adaptive.Simulate(p, nil)
				grid, errF := fixed.Simulate(fixedGrid(p), nil)
				at := fmt.Sprintf("seed=%d vpp=%v run %d", seed, vpp, i)
				if (errA == nil) != (errF == nil) {
					t.Fatalf("%s: error divergence: adaptive %v, fixed %v", at, errA, errF)
				}
				if errA != nil {
					continue // both diverged: same Unreliable/Unrestored classification
				}
				if (knownRestoreLag == mcRunID{seed, vpp, i}) {
					lagged := fast
					lagged.TRASminNS = grid.TRASminNS
					cell := p.StepPS * 1e-3
					if lag := grid.TRASminNS - fast.TRASminNS; math.Abs(lag-cell) > 1e-9 {
						t.Errorf("%s: known divergence changed: adaptive tRASmin %.17g, fixed %.17g, want one %.3g ns cell early",
							at, fast.TRASminNS, grid.TRASminNS, cell)
					}
					assertSameMeasurement(t, at, lagged, grid)
					continue
				}
				assertSameMeasurement(t, at, fast, grid)
			}
		}
	}
}

// mcRunID names one Monte-Carlo activation by the campaign's derivation.
type mcRunID struct {
	seed uint64
	vpp  float64
	run  int
}

// knownRestoreLag is the one run in the 3,600 that
// TestAdaptiveCrossingsMatchFixedGrid checks whose adaptive crossing is
// not the fixed grid's: its cell restores so slowly that the adaptive
// trajectory, within AccuracyTolV of the fixed one, reaches the restore
// target one 25 ps cell earlier (91.575 ns against 91.6 ns). The
// two-point predictor gave the same lag. It is in the spice-mc benchmark
// population, not in the golden campaign's 24 runs per level.
var knownRestoreLag = mcRunID{2022, 1.8, 47}

// TestEngineStateRoundTripsPredictorHistory pins the rewind contract the
// adaptive stepper's trials rely on: save, step, load, step reproduces the
// first step bit for bit, Newton count included, after the discarded steps
// have rotated the whole three-point history and both step spacings past
// the snapshot.
func TestEngineStateRoundTripsPredictorHistory(t *testing.T) {
	p := DefaultCellParams(2.0)
	ckt, _, _ := buildCellCircuit(p)
	base := p.StepPS * 1e-12
	tr, err := NewTransient(ckt, base)
	if err != nil {
		t.Fatal(err)
	}
	tr.newAdaptiveStepper(p.MaxNS * 1e-9)
	// Mid-ramp, with three unequal spacings in the history, so every
	// coefficient of the quadratic predictor matters.
	for _, dt := range []float64{base, base, base, base, 2 * base, 4 * base} {
		tr.setDt(dt)
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	r := tr.red
	if !r.quadratic || r.dtLast == r.dtLast2 {
		t.Fatalf("setup: quadratic=%v dtLast=%g dtLast2=%g, want the three-point predictor over unequal spacings",
			r.quadratic, r.dtLast, r.dtLast2)
	}
	snap := tr.newState()
	tr.save(snap)
	step := func() (v []float64, iters int) {
		before := tr.newtIters
		tr.setDt(2 * base)
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), tr.v...), tr.newtIters - before
	}
	wantV, wantIters := step()
	for _, dt := range []float64{base, 8 * base} { // rotate the history out
		tr.setDt(dt)
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	tr.load(snap)
	if r.dtLast != snap.dtLast || r.dtLast2 != snap.dtLast2 ||
		!reflect.DeepEqual(r.xPrev3, snap.xPrev3) || !reflect.DeepEqual(r.xPrev2, snap.xPrev2) {
		t.Fatalf("load did not restore the predictor history")
	}
	gotV, gotIters := step()
	if gotIters != wantIters {
		t.Errorf("replayed step took %d Newton iterations, first took %d", gotIters, wantIters)
	}
	for i := range wantV {
		if gotV[i] != wantV[i] {
			t.Errorf("node %d: replayed step %.17g, first %.17g", i+1, gotV[i], wantV[i])
		}
	}
}

func assertSameMeasurement(t *testing.T, at string, a, b ActivationResult) {
	t.Helper()
	if a.TRCDminNS != b.TRCDminNS || a.TRASminNS != b.TRASminNS ||
		a.Reliable != b.Reliable || a.Restored != b.Restored {
		t.Errorf("%s: adaptive measurements diverge from fixed grid:\nadaptive %+v\nfixed    %+v", at, a, b)
	}
}

// TestAdaptiveMatchesReference pins the adaptive engine's accuracy contract
// against the dense finite-difference reference: every sample the adaptive
// run emits lands on a base-grid instant whose time is bit-identical to a
// reference sample time, with voltages within AccuracyTolV.
func TestAdaptiveMatchesReference(t *testing.T) {
	for _, vpp := range goldenSweepVPPs {
		p := DefaultCellParams(vpp)
		refBL := make(map[float64]float64)
		refCell := make(map[float64]float64)
		if _, err := simulateActivationReference(p, func(tNS, vbl, vcell float64) {
			refBL[tNS] = vbl
			refCell[tNS] = vcell
		}); err != nil {
			t.Fatalf("vpp=%v: reference: %v", vpp, err)
		}
		samples, offGrid := 0, 0
		worst := 0.0
		if _, err := SimulateActivation(p, func(tNS, vbl, vcell float64) {
			samples++
			wb, ok := refBL[tNS]
			if !ok {
				offGrid++
				return
			}
			worst = math.Max(worst, math.Abs(wb-vbl))
			worst = math.Max(worst, math.Abs(refCell[tNS]-vcell))
		}); err != nil {
			t.Fatalf("vpp=%v: adaptive: %v", vpp, err)
		}
		if samples == 0 {
			t.Fatalf("vpp=%v: adaptive run emitted no samples", vpp)
		}
		if offGrid > 0 {
			t.Errorf("vpp=%v: %d of %d adaptive sample times missing from the reference grid — grid clock drift", vpp, offGrid, samples)
		}
		if worst > AccuracyTolV {
			t.Errorf("vpp=%v: adaptive deviates %.3g V from the dense reference, contract is %.3g", vpp, worst, AccuracyTolV)
		}
	}
}

// TestAdaptiveStepReduction is the speedup acceptance criterion: across the
// Fig. 8a/9a sweep, the quiescent stretches (the cells covered by accepted
// coarse steps) must take at least 3x fewer implicit solves than base cells
// covered, and the whole sweep must take fewer solves than the fixed grid.
func TestAdaptiveStepReduction(t *testing.T) {
	var coarseCells, coarseSolves, solves, fixedSolves int
	for _, vpp := range goldenSweepVPPs {
		p := DefaultCellParams(vpp)
		fast, err := SimulateActivation(p, nil)
		if err != nil {
			t.Fatalf("vpp=%v: adaptive: %v", vpp, err)
		}
		fixed, err := SimulateActivation(fixedGrid(p), nil)
		if err != nil {
			t.Fatalf("vpp=%v: fixed: %v", vpp, err)
		}
		coarseCells += fast.Steps.CoarseCells
		coarseSolves += fast.Steps.CoarseSolves
		solves += fast.Steps.Solves
		fixedSolves += fixed.Steps.Solves
		if fast.Steps.Cells != fixed.Steps.Cells {
			t.Errorf("vpp=%v: adaptive covered %d cells, fixed %d", vpp, fast.Steps.Cells, fixed.Steps.Cells)
		}
	}
	if coarseSolves == 0 {
		t.Fatal("no coarse steps accepted anywhere in the sweep")
	}
	if red := float64(coarseCells) / float64(coarseSolves); red < 3 {
		t.Errorf("quiescent step reduction %.2fx, acceptance floor is 3x", red)
	}
	if solves >= fixedSolves {
		t.Errorf("adaptive sweep used %d solves, fixed grid %d — no overall win", solves, fixedSolves)
	}
}

// TestAdaptiveDisabledByStepCap pins the maxCoarsePS semantics: a base
// step above a quarter of the cap leaves no coarse size of at least
// minCoarse cells, so the run must cover the grid cell-for-cell with one
// solve each, like the fixed loop.
func TestAdaptiveDisabledByStepCap(t *testing.T) {
	p := DefaultCellParams(2.0)
	p.StepPS = maxCoarsePS / 2 // maxMult 2 < minCoarse: coarsening impossible
	if m := maxMult(p.StepPS); m >= minCoarse {
		t.Fatalf("maxMult(%v) = %d, want < %d", p.StepPS, m, minCoarse)
	}
	got, err := SimulateActivation(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps.CoarseCells != 0 || got.Steps.Solves != got.Steps.Cells {
		t.Errorf("capped run still coarsened: %+v", got.Steps)
	}
	fixed, err := SimulateActivation(fixedGrid(p), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMeasurement(t, "capped", got, fixed)
}
