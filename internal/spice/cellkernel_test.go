package spice

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/dramstudy/rhvpp/internal/rng"
)

// bitsEqual reports whether two vectors hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// deviceRegion classifies a device's operating point the way mosDev.stamp
// does: 0 cutoff, 1 triode, 2 saturation, plus whether drain and source
// swapped roles.
func deviceRegion(d mosDev, vd, vg, vs float64) (region int, reversed bool) {
	if d.pmos {
		vd, vg, vs = -vd, -vg, -vs
	}
	if vd < vs {
		vd, vs, reversed = vs, vd, true
	}
	vds, vov := vd-vs, vg-vs-d.vt0
	switch {
	case vov <= 0:
		return 0, reversed
	case vds < vov:
		return 1, reversed
	}
	return 2, reversed
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mustTransient builds the engine for the circuit, failing the test if it
// is not the Table 2 netlist.
func mustTransient(t *testing.T, c *Circuit, dt float64) *Transient {
	t.Helper()
	tr, err := NewTransient(c, dt)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// freshReduced returns the reduced system of a new engine over the circuit,
// restamped at step size dt with the Newton history primed from the node
// voltages v.
func freshReduced(t *testing.T, c *Circuit, dt float64, v []float64) *reduced {
	t.Helper()
	r := mustTransient(t, c, dt).red
	r.restamp(c, dt, v)
	return r
}

// loadStepGeneric is the per-step pass written for any reduced netlist, over
// the circuit's sources and capacitors in circuit order: the oracle of
// loadStep's fixed rows. Every source of the cell has its negative terminal
// on ground.
func loadStepGeneric(r *reduced, c *Circuit, tNext float64, v []float64) {
	for _, s := range c.sources {
		r.vdrv[s.pos-1] = s.wave.At(tNext)
	}
	for i := range r.zStep {
		r.zStep[i] = 0
	}
	at := func(node int) float64 {
		if node == Ground {
			return 0
		}
		return v[node-1]
	}
	for ci, cp := range c.caps {
		ieq := r.gCap[ci] * (at(cp.a) - at(cp.b))
		if ra := r.reducedOf(cp.a); ra >= 0 {
			r.zStep[ra] += ieq
		}
		if rb := r.reducedOf(cp.b); rb >= 0 {
			r.zStep[rb] -= ieq
		}
	}
}

// TestCellIterMatchesGeneric pins the fixed-slot kernel to the generic
// copy-stamp-solve path bit for bit. Each trial switches the step size,
// draws a node history, a source time and a Newton iterate, and overrides
// the driven levels at random, so the five devices visit cutoff, triode and
// saturation in both orientations, NMOS and PMOS. The oracle is a reduced
// system built fresh from the circuit at that step size, loaded by the
// generic per-step pass loadStepGeneric: the per-step pass must match it
// exactly (a value left stale by setDt or restamp shows here), and one
// kernel iteration must leave the same iterate and convergence norm as
// solveGeneric.
// Random states far from a real activation trip the pivot guards on a
// minority of iterations; a declined iteration must leave the iterate
// untouched.
func TestCellIterMatchesGeneric(t *testing.T) {
	src := rand.New(rand.NewSource(27))
	root := rng.New(27).Derive("cell-kernel")
	params := func(run int) CellParams {
		return Vary(DefaultCellParams(1.7+0.1*float64(run%9)), root.Derive("run", run), 0.05)
	}
	ckt, nodes, waves := buildCellCircuit(params(0))
	tr := mustTransient(t, ckt, 25e-12)
	r := tr.red
	const trials = 3000
	seen := map[[3]int]bool{}
	trips := 0
	for trial := 0; trial < trials; trial++ {
		if trial%100 == 99 {
			stampCellValues(ckt, nodes, waves, params(trial/100))
			tr.Reset()
		}
		dt := []float64{25e-12, 50e-12, 400e-12, 1.6e-9}[src.Intn(4)]
		tr.setDt(dt)
		for i := range tr.v {
			tr.v[i] = src.Float64()*1.6 - 0.2
		}
		tNext := src.Float64() * 10e-9
		r.loadStep(tNext, tr.v)

		ref := freshReduced(t, ckt, dt, tr.v)
		loadStepGeneric(ref, ckt, tNext, tr.v)
		if !bitsEqual(r.gStatic, ref.gStatic) || !bitsEqual(r.zStep, ref.zStep) || !bitsEqual(r.vdrv, ref.vdrv) {
			t.Fatalf("trial %d (dt %g): per-step state differs from a fresh engine", trial, dt)
		}
		for _, s := range r.cellSrc {
			v := src.Float64()*3 - 0.3
			r.vdrv[s.node], ref.vdrv[s.node] = v, v
		}
		for i := range r.newt {
			r.newt[i] = src.Float64()*1.6 - 0.2
		}
		copy(ref.newt, r.newt)
		at := func(ri, di int) float64 {
			if ri >= 0 {
				return r.newt[ri]
			}
			return r.vdrv[di]
		}
		for mi, d := range r.devs {
			pl := r.mosPlans[mi]
			region, rev := deviceRegion(d, at(pl.rd, pl.dd), at(pl.rg, pl.dg), at(pl.rs, pl.ds))
			seen[[3]int{b2i(d.pmos), b2i(rev), region}] = true
		}

		before := append([]float64(nil), r.newt...)
		got, ok := r.cellIter()
		want, err := ref.solveGeneric()
		if err != nil {
			t.Fatalf("trial %d: generic solve: %v", trial, err)
		}
		if !ok {
			trips++
			if !bitsEqual(r.newt, before) {
				t.Fatalf("trial %d: a declined iteration wrote the iterate", trial)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) || !bitsEqual(r.newt, ref.newt) {
			t.Fatalf("trial %d (dt %g): kernel iterate %v (norm %v), generic %v (norm %v)",
				trial, dt, r.newt, got, ref.newt, want)
		}
	}
	for pmos := 0; pmos < 2; pmos++ {
		for rev := 0; rev < 2; rev++ {
			for region := 0; region < 3; region++ {
				if !seen[[3]int{pmos, rev, region}] {
					t.Errorf("no trial reached pmos=%d reversed=%d region=%d", pmos, rev, region)
				}
			}
		}
	}
	if trips == 0 || trips > trials/2 {
		t.Errorf("%d of %d iterations declined by a pivot guard: the fallback or the kernel is barely exercised", trips, trials)
	}
}

// TestMonteCarloSweepPinned pins the Fig. 8b/9b Monte-Carlo results at all
// nine sweep levels and two seeds (30 runs each) to the SHA-256 prefixes of
// their JSON encodings, recorded before the fixed-slot kernel: any change to
// the solver's float-op sequence shows here.
func TestMonteCarloSweepPinned(t *testing.T) {
	for _, pin := range []struct {
		seed    uint64
		digests []string // per level, in goldenSweepVPPs order
	}{
		{2022, []string{
			"a02bf870a4529c0e", "526b533e8d0177c0", "1256556627a8fb69",
			"4d9becc322182658", "a30663e409598c77", "711c3f3bdf0ac276",
			"1948f9d692c933e6", "92dd1dac037e8058", "45f18c2fd4366d67",
		}},
		{7, []string{
			"6ce5e7b5bc6d747b", "86ef2bb1bbaf66e4", "e1c0f2ec2349a75c",
			"3eeaf3efcce8b4e6", "b07ccbea61179ea7", "3554e25a78f23b41",
			"0d8383375e2dc856", "d1dbfbc61cb82e2f", "314fc054120569c3",
		}},
	} {
		res, err := RunMonteCarloSweep(context.Background(), goldenSweepVPPs,
			MCConfig{Runs: 30, Seed: pin.seed, Variation: 0.05, Jobs: 2})
		if err != nil {
			t.Fatal(err)
		}
		for li, r := range res {
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw))[:16]; got != pin.digests[li] {
				t.Errorf("seed %d VPP %.1f: result digest %s, want %s", pin.seed, r.VPP, got, pin.digests[li])
			}
		}
	}
}

// TestHoistedCellValuesMatchFreshComputation pins every value the cell
// path computes ahead of its use to a fresh computation from the state at
// the solve that consumes it. A Workspace runs one adaptive low-VPP
// activation (step-size switches, rejected trials and measurement rewinds
// restored through load), then is Reset to new parameters and runs again.
// At every converged solve:
//   - the static system, the capacitor conductances and the device-free
//     rows' guards and factors equal a fresh engine's at the current step
//     size, and the rows also equal their formulas over the current
//     gStatic;
//   - the source levels equal PWL.At, and the per-step right-hand side and
//     its device-free-row products equal a fresh per-step pass;
//   - the cached predictor weights belong to (dt, dtLast, dtLast2) and equal
//     the Lagrange formulas there;
//   - the largest node move the write-back reports equals a two-pass
//     maximum over the old and new node voltages.
func TestHoistedCellValuesMatchFreshComputation(t *testing.T) {
	root := rng.New(28).Derive("hoisted")
	ws := NewWorkspace()
	if _, err := ws.Simulate(Vary(DefaultCellParams(2.5), root.Derive("run", 0), 0.05), nil); err != nil {
		t.Fatal(err)
	}
	tr := ws.tr
	r := tr.red
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var (
		solves, weighted, recomputed, settled, ramping int
		dts                                            = map[float64]bool{}
		lastKey                                        [3]float64
		wantMoved                                      float64
		pending                                        bool
		failed                                         bool
	)
	fail := func(format string, args ...any) {
		if !failed {
			t.Errorf("solve %d (t=%g, dt=%g): "+format, append([]any{solves, tr.t, tr.dt}, args...)...)
		}
		failed = true
	}
	r.solveHook = func() {
		if pending && !same(tr.moved, wantMoved) {
			fail("write-back reported move %g, two-pass maximum %g", tr.moved, wantMoved)
		}
		solves++
		dts[tr.dt] = true
		tNext := tr.t + tr.dt

		ref := freshReduced(t, ws.ckt, tr.dt, tr.v)
		if !bitsEqual(r.gStatic, ref.gStatic) || !bitsEqual(r.gCap, ref.gCap) || *r.rows != *ref.rows {
			fail("static system or device-free rows differ from a fresh engine at this step size")
		}
		g := r.gStatic
		ok := !(abs(g[6]) > abs(g[0]) || abs(g[0]) < 1e-18) && !(abs(g[34]) > abs(g[28]) || abs(g[28]) < 1e-18)
		f10, f54 := g[6]*(1/g[0]), g[34]*(1/g[28])
		if want := (cellRows{ok: ok, f10: f10, fa01: f10 * g[1], f54: f54, fa45: f54 * g[29]}); *r.rows != want {
			fail("device-free rows %+v, recomputed from gStatic %+v", *r.rows, want)
		}

		for _, s := range r.cellSrc {
			if w := s.wave.At(tNext); !same(r.vdrv[s.node], w) {
				fail("source at node %d reads %g, PWL.At %g", s.node+1, r.vdrv[s.node], w)
			}
			if tNext > s.wave.Times[len(s.wave.Times)-1] {
				settled++
			} else {
				ramping++
			}
		}
		loadStepGeneric(ref, ws.ckt, tNext, tr.v)
		if !bitsEqual(r.zStep, ref.zStep) {
			fail("per-step right-hand side %v, fresh %v", r.zStep, ref.zStep)
		}
		if !same(r.fz0, f10*r.zStep[0]) || !same(r.fz4, f54*r.zStep[4]) {
			fail("device-free-row products (%g, %g), recomputed (%g, %g)", r.fz0, r.fz4, f10*r.zStep[0], f54*r.zStep[4])
		}

		if r.quadratic && r.steps >= 3 {
			weighted++
			h0, h1, h2 := tr.dt, r.dtLast, r.dtLast2
			key := [3]float64{h0, h1, h2}
			if key != lastKey {
				recomputed++
				lastKey = key
			}
			s01, s012 := h0+h1, h0+h1+h2
			want := [3]float64{s01 * s012 / (h1 * (h1 + h2)), -h0 * s012 / (h1 * h2), h0 * s01 / ((h1 + h2) * h2)}
			if r.weights.h != key || r.weights.l != want {
				fail("predictor weights %v cached for %v, want %v for %v", r.weights.l, r.weights.h, want, key)
			}
		}

		after := append([]float64(nil), tr.v...)
		for i, n := range r.nodes {
			after[n-1] = r.newt[i]
		}
		for _, s := range r.cellSrc {
			after[s.node] = r.vdrv[s.node]
		}
		wantMoved = 0
		for i := range after {
			if d := abs(after[i] - tr.v[i]); d > wantMoved {
				wantMoved = d
			}
		}
		pending = true
	}

	var rejected int
	for i, vpp := range []float64{1.7, 2.0} {
		res, err := ws.Simulate(Vary(DefaultCellParams(vpp), root.Derive("run", i+1), 0.05), nil)
		if err != nil {
			t.Fatalf("%.1f V: %v", vpp, err)
		}
		if pending && !same(tr.moved, wantMoved) {
			fail("write-back reported move %g, two-pass maximum %g", tr.moved, wantMoved)
		}
		pending = false
		rejected += res.Steps.Rejected
	}
	r.solveHook = nil
	// The runs must reach what the hoisted values could get wrong.
	if len(dts) < 4 || rejected == 0 || settled == 0 || ramping == 0 ||
		weighted == 0 || recomputed == 0 || recomputed == weighted {
		t.Errorf("weak coverage: %d solves, %d step sizes, %d rejected trials, %d/%d settled/ramping source reads, %d weighted predictions with %d weight changes",
			solves, len(dts), rejected, settled, ramping, weighted, recomputed)
	}
}
