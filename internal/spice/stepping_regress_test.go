package spice

import "testing"

// The five campaign VPP levels and the integration-work pins of the nominal
// (unvaried) Table 2 activation at each. These are exact-count regressions:
// the engines are deterministic, so any drift means the float-op sequence
// changed, which is the event the pins exist to catch. fixedNewtonIters is
// the same activation on the fixed 25 ps grid.
var steppingPins = []struct {
	vpp              float64
	solves           int
	rejected         int
	newtonIters      int
	fixedNewtonIters int
}{
	{1.7, 1339, 3, 1770, 3822},
	{2.0, 1291, 4, 1560, 2293},
	{2.2, 953, 2, 1106, 1802},
	{2.5, 752, 1, 901, 1477},
	{2.8, 683, 2, 840, 1335},
}

// TestScaledPredictorIterations pins the Newton iteration totals produced by
// the adaptive stepper's three-point predictor. The two-point predictor it
// replaced (2*x-y, its slope rescaled by dt/dtLast across setDt boundaries)
// took 2455/2274/1814/1483/1347 iterations at VPP 1.7..2.8 over the same
// solves, nearly always two per solve; those counts stay as the upper bound.
// The fixed grid keeps the literal 2*xPrev-xPrev2 form, so its counts must
// not move from the values recorded before the three-point predictor.
func TestScaledPredictorIterations(t *testing.T) {
	linearIters := []int{2455, 2274, 1814, 1483, 1347}
	for i, pin := range steppingPins {
		p := DefaultCellParams(pin.vpp)
		res, err := SimulateActivation(p, nil)
		if err != nil {
			t.Fatalf("vpp=%.1f: %v", pin.vpp, err)
		}
		if got := res.Steps.NewtonIters; got != pin.newtonIters {
			t.Errorf("vpp=%.1f: NewtonIters = %d, want %d", pin.vpp, got, pin.newtonIters)
		}
		if got := res.Steps.NewtonIters; got > linearIters[i] {
			t.Errorf("vpp=%.1f: NewtonIters = %d exceeds the two-point predictor's %d",
				pin.vpp, got, linearIters[i])
		}
		fixed, err := SimulateActivation(fixedGrid(p), nil)
		if err != nil {
			t.Fatalf("vpp=%.1f fixed grid: %v", pin.vpp, err)
		}
		if got := fixed.Steps.NewtonIters; got != pin.fixedNewtonIters {
			t.Errorf("vpp=%.1f: fixed-grid NewtonIters = %d, want %d", pin.vpp, got, pin.fixedNewtonIters)
		}
	}
}

// TestPerNodeLTEReducesRejections pins the solve and rejection counts under
// the per-node RMS LTE norm. The previous max-norm estimate let a single
// fast-moving node veto an otherwise-accurate coarse step: across these five
// runs it rejected 14 coarse trials (per-VPP 3/6/2/1/2) and spent
// 1321/1495/953/752/683 solves. The RMS norm rejects 12 and never spends
// more solves at any level; the largest win is mid-transition VPP 2.0, where
// bitline ringing dominates the max norm but averages out across nodes.
func TestPerNodeLTEReducesRejections(t *testing.T) {
	const oldTotalRejected = 14
	total := 0
	for _, pin := range steppingPins {
		res, err := SimulateActivation(DefaultCellParams(pin.vpp), nil)
		if err != nil {
			t.Fatalf("vpp=%.1f: %v", pin.vpp, err)
		}
		if got := res.Steps.Solves; got != pin.solves {
			t.Errorf("vpp=%.1f: Solves = %d, want %d", pin.vpp, got, pin.solves)
		}
		if got := res.Steps.Rejected; got != pin.rejected {
			t.Errorf("vpp=%.1f: Rejected = %d, want %d", pin.vpp, got, pin.rejected)
		}
		total += res.Steps.Rejected
	}
	if total >= oldTotalRejected {
		t.Errorf("total rejected = %d, want fewer than the max-norm estimator's %d",
			total, oldTotalRejected)
	}
}
