package spice

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// goldenSweepVPPs mirrors the experiment layer's Fig. 8/9 sweep.
var goldenSweepVPPs = []float64{2.5, 2.4, 2.3, 2.2, 2.1, 2.0, 1.9, 1.8, 1.7}

// TestGoldenIncrementalMatchesReference pins the incremental/analytic-
// Jacobian engine to the dense finite-difference reference on the Fig.
// 8a/9a waveforms at every sweep VPP: both integrate the same nonlinear
// system to the same Newton tolerance, so the traces must agree to 1e-9 V.
// Adaptive stepping is disabled — this test is the FIXED-grid contract
// between the two engines; adaptive_test.go pins the adaptive engine
// against the same reference.
func TestGoldenIncrementalMatchesReference(t *testing.T) {
	for _, vpp := range goldenSweepVPPs {
		p := DefaultCellParams(vpp)
		p.Adaptive = false
		var fastBL, fastCell, refBL, refCell []float64
		fast, err := SimulateActivation(p, func(_, vbl, vcell float64) {
			fastBL = append(fastBL, vbl)
			fastCell = append(fastCell, vcell)
		})
		if err != nil {
			t.Fatalf("vpp=%v: incremental: %v", vpp, err)
		}
		ref, err := simulateActivationReference(p, func(_, vbl, vcell float64) {
			refBL = append(refBL, vbl)
			refCell = append(refCell, vcell)
		})
		if err != nil {
			t.Fatalf("vpp=%v: reference: %v", vpp, err)
		}
		if len(fastBL) != len(refBL) {
			t.Fatalf("vpp=%v: sample counts differ: %d vs %d", vpp, len(fastBL), len(refBL))
		}
		for i := range fastBL {
			if d := math.Abs(fastBL[i] - refBL[i]); d > 1e-9 {
				t.Fatalf("vpp=%v: bitline deviates by %.3g at sample %d", vpp, d, i)
			}
			if d := math.Abs(fastCell[i] - refCell[i]); d > 1e-9 {
				t.Fatalf("vpp=%v: cell deviates by %.3g at sample %d", vpp, d, i)
			}
		}
		// The measurements derive from threshold crossings on the shared
		// step grid; with waveforms this close they must land identically.
		if fast.TRCDminNS != ref.TRCDminNS || fast.TRASminNS != ref.TRASminNS ||
			fast.Reliable != ref.Reliable || fast.Restored != ref.Restored {
			t.Errorf("vpp=%v: measurements diverge: %+v vs %+v", vpp, fast, ref)
		}
	}
}

// TestReducedEngineSelection verifies the engine choice: the Table 2
// netlist builds the production engine, and any other circuit is rejected
// with an error rather than solved some other way. The circuits the
// reduction cannot express (a floating source, a node driven twice) and a
// source grounded through its positive terminal still integrate as circuit
// theory says on the dense oracle.
func TestReducedEngineSelection(t *testing.T) {
	c := NewCircuit()
	a, b := c.Node("a"), c.Node("b")
	c.V(a, b, DC(1.0)) // floating source: cannot be reduced
	c.R(a, Ground, 1000)
	c.R(b, Ground, 1000)
	if _, err := NewTransient(c, 1e-12); err == nil {
		t.Error("the engine accepted a floating source")
	}
	tr := newDenseTransient(c, 1e-12)
	if err := tr.stepDense(); err != nil {
		t.Fatal(err)
	}
	if got := tr.V(a) - tr.V(b); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("floating source enforces %v, want 1.0", got)
	}

	c2 := NewCircuit()
	n := c2.Node("n")
	c2.V(n, Ground, DC(1.0))
	c2.V(n, Ground, DC(2.0)) // doubly driven: conflicting constraints
	if _, err := NewTransient(c2, 1e-12); err == nil {
		t.Error("the engine accepted a doubly driven node")
	}
	if err := newDenseTransient(c2, 1e-12).stepDense(); !errors.Is(err, ErrSingular) {
		t.Errorf("doubly driven node: dense step returned %v, want ErrSingular", err)
	}

	c3 := NewCircuit()
	m := c3.Node("m")
	c3.V(Ground, m, DC(1.0)) // grounded through the negative terminal
	c3.R(m, Ground, 1000)
	if _, err := NewTransient(c3, 1e-12); err == nil {
		t.Error("the engine accepted a circuit other than the cell netlist")
	}
	tr3 := newDenseTransient(c3, 1e-12)
	if err := tr3.stepDense(); err != nil {
		t.Fatal(err)
	}
	if got := tr3.V(m); math.Abs(got+1.0) > 1e-9 {
		t.Errorf("V = %v, want -1.0", got)
	}

	// The Table 2 netlist builds the engine. The same devices in another
	// order do not (the kernel's summation order is fixed), nor does a
	// resistor outside cellPattern6 or one to a driven node (the static
	// system has no place for a term on a driven node).
	cell := func(edit func(*Circuit, cellNodes)) bool {
		ckt, n, _ := buildCellCircuit(DefaultCellParams(2.5))
		edit(ckt, n)
		_, err := NewTransient(ckt, 25e-12)
		return err == nil
	}
	if !cell(func(*Circuit, cellNodes) {}) {
		t.Error("the Table 2 netlist was rejected")
	}
	if cell(func(c *Circuit, _ cellNodes) { c.mosfets[1], c.mosfets[3] = c.mosfets[3], c.mosfets[1] }) {
		t.Error("a reordered sense amplifier was accepted")
	}
	if cell(func(c *Circuit, n cellNodes) { c.R(n.cellC, n.bls, 1e6) }) {
		t.Error("a resistor outside the cell pattern was accepted")
	}
	if cell(func(c *Circuit, n cellNodes) { c.R(n.bls, n.san, 1e6) }) {
		t.Error("a resistor to a driven node was accepted")
	}
	if cell(func(c *Circuit, n cellNodes) { c.caps[1].b = n.bls }) {
		t.Error("a bitline capacitor that is not grounded was accepted")
	}
	if cell(func(c *Circuit, n cellNodes) { c.sources[0].wave = DC(2.5) }) {
		t.Error("a wordline source that is not piecewise-linear was accepted")
	}
}

// TestMOSStampMatchesEval checks the analytic stamp partials against
// central finite differences of eval at operating points covering every
// region, polarity, and orientation.
func TestMOSStampMatchesEval(t *testing.T) {
	devices := []MOSParams{
		{Type: NMOS, W: 1e-6, L: 1e-6, VT0: 0.5, KP: 100e-6, Lambda: 0.03},
		{Type: PMOS, W: 0.9e-6, L: 0.1e-6, VT0: 0.45, KP: 11e-6, Lambda: 0.05},
	}
	points := []struct{ vd, vg, vs float64 }{
		{1.0, 0.3, 0},    // cutoff
		{0.5, 1.5, 0},    // triode
		{2.0, 1.5, 0},    // saturation
		{0.2, 2.0, 1.0},  // reversed triode
		{0.0, 2.0, 1.8},  // reversed saturation
		{-0.5, -1.5, 0},  // mirrored operating point
		{0.6, 0.6, 0.6},  // all terminals equal
		{1.3, 0.9, -0.4}, // shifted source
	}
	const h = 1e-7
	for _, p := range devices {
		for _, pt := range points {
			dev := p.dev()
			id, gdd, gdg, gds := dev.stamp(pt.vd, pt.vg, pt.vs)
			id0, _, _ := p.eval(pt.vd, pt.vg, pt.vs)
			if math.Abs(id-id0) > 1e-15 {
				t.Fatalf("%+v at %+v: stamp id %v != eval id %v", p.Type, pt, id, id0)
			}
			fd := func(dvd, dvg, dvs float64) float64 {
				hi, _, _ := p.eval(pt.vd+dvd*h, pt.vg+dvg*h, pt.vs+dvs*h)
				lo, _, _ := p.eval(pt.vd-dvd*h, pt.vg-dvg*h, pt.vs-dvs*h)
				return (hi - lo) / (2 * h)
			}
			for _, chk := range []struct {
				name      string
				got, want float64
			}{
				{"gdd", gdd, fd(1, 0, 0)},
				{"gdg", gdg, fd(0, 1, 0)},
				{"gds", gds, fd(0, 0, 1)},
			} {
				tol := 1e-7 * (1 + math.Abs(chk.want))
				if math.Abs(chk.got-chk.want) > tol {
					t.Errorf("%v at %+v: %s = %v, finite difference %v",
						p.Type, pt, chk.name, chk.got, chk.want)
				}
			}
		}
	}
}

// TestMonteCarloDeterministicAcrossJobs asserts the worker count never
// changes the campaign result: every run draws from an index-derived stream
// and aggregation happens in index order.
func TestMonteCarloDeterministicAcrossJobs(t *testing.T) {
	ctx := context.Background()
	vpps := []float64{2.0}
	base := MCConfig{Runs: 16, Seed: 99, Variation: 0.05}

	cfg1 := base
	cfg1.Jobs = 1
	serial, err := RunMonteCarloSweep(ctx, vpps, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := base
	cfg8.Jobs = 8
	parallel, err := RunMonteCarloSweep(ctx, vpps, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Jobs=1 and Jobs=8 diverge:\n%+v\n%+v", serial, parallel)
	}
}

// TestMCResultRecordsNoConverge pins the campaign bookkeeping: a diverging
// run is not a campaign abort but an unreliable, unrestored sample with its
// own counter (the Fig. 8b/9b low-VPP regime).
func TestMCResultRecordsNoConverge(t *testing.T) {
	var r MCResult
	r.Runs = 3
	r.record(ActivationResult{Reliable: true, TRCDminNS: 11.5, Restored: true, TRASminNS: 30}, false)
	r.record(ActivationResult{}, true) // Newton divergence
	r.record(ActivationResult{Reliable: true, TRCDminNS: 12.0}, false)
	if r.NoConverge != 1 {
		t.Errorf("NoConverge = %d, want 1", r.NoConverge)
	}
	if r.Unreliable != 1 || r.Unrestored != 2 {
		t.Errorf("Unreliable=%d Unrestored=%d, want 1 and 2", r.Unreliable, r.Unrestored)
	}
	if r.TRCDmin.N() != 2 || r.TRASmin.N() != 1 {
		t.Errorf("samples = %d/%d, want 2/1", r.TRCDmin.N(), r.TRASmin.N())
	}
	if r.Reliable() != 2 || r.Restored() != 1 {
		t.Errorf("Reliable/Restored = %d/%d, want 2/1", r.Reliable(), r.Restored())
	}
}

// TestRunMonteCarloCancellation verifies the campaign honors its context.
func TestRunMonteCarloCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunMonteCarloSweep(ctx, []float64{2.5}, MCConfig{Runs: 4, Seed: 1, Variation: 0.05, Jobs: 1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
