package physics

import (
	"math"
	"slices"
	"testing"

	"github.com/dramstudy/rhvpp/internal/pattern"
)

func testGeometry() Geometry {
	return Geometry{Banks: 2, RowsPerBank: 4096, RowBytes: 1024, SubarrayRows: 512}
}

func newTestModel(t *testing.T, name string) *DeviceModel {
	t.Helper()
	p, ok := ProfileByName(name)
	if !ok {
		t.Fatalf("profile %s not found", name)
	}
	return NewDeviceModel(p, testGeometry(), 1234)
}

func TestGeometry(t *testing.T) {
	g := testGeometry()
	if g.RowBits() != 8192 {
		t.Errorf("RowBits = %d", g.RowBits())
	}
	if g.Columns() != 16 {
		t.Errorf("Columns = %d", g.Columns())
	}
	if !g.Valid() {
		t.Error("test geometry invalid")
	}
	if (Geometry{}).Valid() {
		t.Error("zero geometry reported valid")
	}
	if !DefaultGeometry().Valid() || !FullGeometry().Valid() {
		t.Error("stock geometries invalid")
	}
}

func TestSaturationVoltage(t *testing.T) {
	// Obsv. 10: saturates at VDD for VPP >= 2.0; 4.1%/11.0%/18.1% lower at
	// 1.9/1.8/1.7 V.
	tests := []struct {
		vpp, wantLossPct float64
	}{
		{2.5, 0}, {2.1, 0}, {2.0, 0},
		{1.9, 4.1}, {1.8, 11.0}, {1.7, 18.1},
	}
	for _, tt := range tests {
		v := SaturationVoltage(tt.vpp)
		loss := (VDDNominal - v) / VDDNominal * 100
		if math.Abs(loss-tt.wantLossPct) > 1.7 {
			t.Errorf("VPP=%v: saturation loss = %.1f%%, want ~%.1f%%", tt.vpp, loss, tt.wantLossPct)
		}
	}
}

func TestRestoreMarginNonNegative(t *testing.T) {
	for v := 0.5; v <= 3.0; v += 0.05 {
		if RestoreMargin(v) < 0 {
			t.Fatalf("negative margin at VPP=%v", v)
		}
	}
	if math.Abs(RestoreMargin(2.5)-(VDDNominal-VSenseMin)) > 1e-12 {
		t.Errorf("nominal margin = %v", RestoreMargin(2.5))
	}
}

func TestModelDeterminism(t *testing.T) {
	p, _ := ProfileByName("A3")
	m1 := NewDeviceModel(p, testGeometry(), 77)
	m2 := NewDeviceModel(p, testGeometry(), 77)
	for row := 0; row < 20; row++ {
		c1 := m1.HammerFlipCount(0, row, pattern.RowStripeFF, 2.0, 300_000, 50, 3)
		c2 := m2.HammerFlipCount(0, row, pattern.RowStripeFF, 2.0, 300_000, 50, 3)
		if c1 != c2 {
			t.Fatalf("row %d: models with equal seeds disagree: %d != %d", row, c1, c2)
		}
	}
}

func TestModelSeedSensitivity(t *testing.T) {
	p, _ := ProfileByName("A3")
	m1 := NewDeviceModel(p, testGeometry(), 1)
	m2 := NewDeviceModel(p, testGeometry(), 2)
	diff := false
	for row := 0; row < 50 && !diff; row++ {
		if m1.GroundTruthHCFirst(0, row, 2.5) != m2.GroundTruthHCFirst(0, row, 2.5) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical ground truth")
	}
}

func TestHCFirstNominalAnchorsToTable(t *testing.T) {
	// The minimum ground-truth HCfirst across many rows should approach the
	// module's Table 3 value at nominal VPP.
	for _, name := range []string{"A0", "B3", "C5"} {
		m := newTestModel(t, name)
		minHC := math.Inf(1)
		for row := 0; row < 2000; row++ {
			if hc := m.GroundTruthHCFirst(0, row, 2.5); hc < minHC {
				minHC = hc
			}
		}
		want := m.Profile().Nominal.HCFirst
		if minHC < want*0.999 || minHC > want*1.15 {
			t.Errorf("%s: min HCfirst = %v, want within [%v, %v]", name, minHC, want, want*1.15)
		}
	}
}

func TestHCFirstRatioAtVPPMin(t *testing.T) {
	// The weakest rows must carry the module's published normalized HCfirst
	// at VPPmin (the coupling-weight construction guarantees this).
	for _, name := range []string{"B3", "B9", "C5", "A8"} {
		m := newTestModel(t, name)
		p := m.Profile()
		wantRatio := p.AtVPPMin.HCFirst / p.Nominal.HCFirst

		minNom, minMin := math.Inf(1), math.Inf(1)
		for row := 0; row < 2000; row++ {
			if hc := m.GroundTruthHCFirst(0, row, 2.5); hc < minNom {
				minNom = hc
			}
			if hc := m.GroundTruthHCFirst(0, row, p.VPPMin); hc < minMin {
				minMin = hc
			}
		}
		gotRatio := minMin / minNom
		if math.Abs(gotRatio-wantRatio) > 0.08*wantRatio {
			t.Errorf("%s: module HCfirst ratio at VPPmin = %.3f, want %.3f (±8%%)",
				name, gotRatio, wantRatio)
		}
	}
}

func TestHammerFlipCountMonotoneInHC(t *testing.T) {
	m := newTestModel(t, "B0")
	prev := -1
	for hc := 1000.0; hc <= 600_000; hc *= 1.3 {
		c := m.HammerFlipCount(0, 7, pattern.CheckerAA, 2.5, hc, 50, 0)
		if c < prev {
			t.Fatalf("flip count decreased: %d after %d at hc=%v", c, prev, hc)
		}
		prev = c
	}
}

func TestHammerNoFlipsBelowThreshold(t *testing.T) {
	m := newTestModel(t, "A5") // strongest module, HCfirst 140.7K
	for row := 0; row < 30; row++ {
		// Use the row's worst pattern implicitly via ground truth: at 20%
		// of HCfirst even noisy measurements must see zero flips.
		hc := m.GroundTruthHCFirst(0, row, 2.5) * 0.2
		for iter := 0; iter < 5; iter++ {
			for _, k := range pattern.All() {
				if c := m.HammerFlipCount(0, row, k, 2.5, hc, 50, iter); c != 0 {
					t.Fatalf("row %d iter %d pattern %v: %d flips at 0.2x HCfirst", row, iter, k, c)
				}
			}
		}
	}
}

func TestHammerFlipsAtGroundTruth(t *testing.T) {
	// Hammering well above the ground-truth HCfirst must flip bits.
	m := newTestModel(t, "B0")
	for row := 0; row < 20; row++ {
		hc := m.GroundTruthHCFirst(0, row, 2.5) * 2
		found := false
		for _, k := range pattern.All() {
			if m.HammerFlipCount(0, row, k, 2.5, hc, 50, 0) > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("row %d: no flips at 2x ground-truth HCfirst", row)
		}
	}
}

func TestHammerZeroCases(t *testing.T) {
	m := newTestModel(t, "B0")
	if m.HammerFlipCount(0, 0, pattern.CheckerAA, 2.5, 0, 50, 0) != 0 {
		t.Error("zero hammers produced flips")
	}
	if m.HammerFlipCount(0, 0, pattern.CheckerAA, 1.0, 1e6, 50, 0) != 0 {
		t.Error("module below VPPmin should not respond (no flips reported)")
	}
}

func TestBERNearTableValue(t *testing.T) {
	// Mean flips/bits across rows at the reference hammer count should be
	// within a factor ~2 of the module's Table 3 BER (per-row spread and
	// pattern penalties make this a loose check; experiments use WCDP).
	m := newTestModel(t, "B7") // highest BER module: 1.32e-1
	n := float64(m.Geometry().RowBits())
	var sum float64
	const rows = 300
	for row := 0; row < rows; row++ {
		best := 0
		for _, k := range pattern.All() {
			if c := m.HammerFlipCount(0, row, k, 2.5, ReferenceHammerCount, 50, 0); c > best {
				best = c
			}
		}
		sum += float64(best) / n
	}
	got := sum / rows
	want := m.Profile().Nominal.BER
	if got < want/2 || got > want*2 {
		t.Errorf("mean BER = %v, want within 2x of %v", got, want)
	}
}

func TestFlipPositionsStablePrefix(t *testing.T) {
	m := newTestModel(t, "B0")
	p10 := m.HammerFlipPositions(0, 3, 10)
	p50 := m.HammerFlipPositions(0, 3, 50)
	if len(p10) != 10 || len(p50) != 50 {
		t.Fatalf("lengths: %d, %d", len(p10), len(p50))
	}
	for i := range p10 {
		if p10[i] != p50[i] {
			t.Fatalf("flip ordering not stable at %d", i)
		}
	}
	seen := map[int32]bool{}
	for _, pos := range p50 {
		if pos < 0 || int(pos) >= m.Geometry().RowBits() {
			t.Fatalf("position %d out of range", pos)
		}
		if seen[pos] {
			t.Fatalf("duplicate position %d", pos)
		}
		seen[pos] = true
	}
}

func TestFlipPositionsClampedToRowBits(t *testing.T) {
	m := newTestModel(t, "B0")
	all := m.HammerFlipPositions(0, 3, 1<<20)
	if len(all) != m.Geometry().RowBits() {
		t.Errorf("over-large count returned %d positions, want %d", len(all), m.Geometry().RowBits())
	}
}

// TestCellOrderPrefixMatchesFullOrder pins the bounded cell orders to the
// whole-row shuffle they replace, for both the hammer and the retention
// order: a first read keeps RowBits/orderKeepDiv cells, a read past the
// kept prefix re-shuffles from the row's stream and keeps a longer prefix,
// and every prefix any read returns is the whole order's.
func TestCellOrderPrefixMatchesFullOrder(t *testing.T) {
	m := newTestModel(t, "B0")
	bits := m.Geometry().RowBits()
	keep := bits / orderKeepDiv
	orders := map[string]func(row, n int) []int32{
		"hammerperm": func(row, n int) []int32 { return m.HammerOrder(0, row, n) },
		"retperm": func(row, n int) []int32 {
			r := m.RetentionRow(0, row, 2.5, RetentionTestTempC, 0)
			return r.BulkOrder(n)
		},
	}
	for label, order := range orders {
		// Row 3 grows step by step; row 4 is read past the kept prefix
		// first, so its only shuffle is the long one.
		for row, reads := range map[int][]int{3: {10, keep, keep + 1, 3 * keep, bits + 5}, 4: {keep + 100, 20}} {
			full := refCellOrder(m, label, 0, row)
			kept := 0
			for _, n := range reads {
				got := order(row, n)
				want := min(n, bits)
				if len(got) < want || len(got) < min(keep, bits) {
					t.Fatalf("%s row %d: read of %d returned %d cells", label, row, n, len(got))
				}
				if n <= kept && len(got) != kept {
					t.Errorf("%s row %d: read of %d within the kept %d cells re-sampled to %d", label, row, n, kept, len(got))
				}
				if n > kept && kept > 0 && len(got) < min(2*kept, bits) {
					t.Errorf("%s row %d: read of %d past %d kept cells kept only %d", label, row, n, kept, len(got))
				}
				if !slices.Equal(got, full[:len(got)]) {
					t.Fatalf("%s row %d: read of %d is not the whole order's prefix", label, row, n)
				}
				kept = len(got)
			}
		}
	}
	if got := m.HammerFlipPositions(0, 3, keep+7); !slices.Equal(got, refCellOrder(m, "hammerperm", 0, 3)[:keep+7]) {
		t.Error("HammerFlipPositions is not the whole order's prefix")
	}
}

func TestPatternFactorWorstIsOne(t *testing.T) {
	m := newTestModel(t, "C0")
	for row := 0; row < 50; row++ {
		best := 0.0
		for _, k := range pattern.All() {
			f := m.PatternFactor(0, row, k, 2.5)
			if f > best {
				best = f
			}
			if f <= 0 || f > 1.1 {
				t.Fatalf("row %d pattern %v: factor %v out of range", row, k, f)
			}
		}
		if math.Abs(best-1) > 1e-12 {
			t.Errorf("row %d: best pattern factor = %v, want 1", row, best)
		}
	}
}

func TestPatternFactorInvalidKind(t *testing.T) {
	m := newTestModel(t, "C0")
	if f := m.PatternFactor(0, 0, pattern.Kind(99), 2.5); f != 0.5 {
		t.Errorf("invalid pattern factor = %v, want 0.5", f)
	}
}

func TestWCDPDistribution(t *testing.T) {
	// Each of the six patterns should be worst for a nontrivial share of rows.
	m := newTestModel(t, "C0")
	counts := map[pattern.Kind]int{}
	const rows = 600
	for row := 0; row < rows; row++ {
		for _, k := range pattern.All() {
			if m.PatternFactor(0, row, k, 2.5) == 1 {
				counts[k]++
			}
		}
	}
	for _, k := range pattern.All() {
		if counts[k] < rows/20 {
			t.Errorf("pattern %v is WCDP for only %d/%d rows", k, counts[k], rows)
		}
	}
}

func TestOppositeTrendRowsExist(t *testing.T) {
	// Obsv. 5: some rows' HCfirst decreases at reduced VPP. B9's module-level
	// value decreases, so its weak rows must show ratios < 1.
	m := newTestModel(t, "B9")
	p := m.Profile()
	decreasing, total := 0, 800
	for row := 0; row < total; row++ {
		nom := m.GroundTruthHCFirst(0, row, 2.5)
		min := m.GroundTruthHCFirst(0, row, p.VPPMin)
		if min < nom {
			decreasing++
		}
	}
	if decreasing == 0 {
		t.Error("no opposite-trend rows in B9")
	}
	if decreasing == total {
		t.Error("all B9 rows decreasing; expected a mix")
	}
}

func TestMfrCRowsMostlyIncrease(t *testing.T) {
	// Obsv. 6: HCfirst increases for 83.5% of Mfr C rows. Check C0 (module
	// ratio 1.21) has a strong majority of increasing rows.
	m := newTestModel(t, "C0")
	p := m.Profile()
	inc, total := 0, 800
	for row := 0; row < total; row++ {
		if m.GroundTruthHCFirst(0, row, p.VPPMin) > m.GroundTruthHCFirst(0, row, 2.5) {
			inc++
		}
	}
	if frac := float64(inc) / float64(total); frac < 0.7 {
		t.Errorf("C0 increasing-row fraction = %v, want > 0.7", frac)
	}
}

func TestHumpShape(t *testing.T) {
	p, _ := ProfileByName("A2") // interior VPPRec = 2.1
	m := NewDeviceModel(p, testGeometry(), 5)
	if h := m.hump(2.5); h != 0 {
		t.Errorf("hump at nominal = %v, want 0", h)
	}
	if h := m.hump(p.VPPMin); h != 0 {
		t.Errorf("hump at VPPmin = %v, want 0", h)
	}
	if h := m.hump(2.1); math.Abs(h-1) > 1e-12 {
		t.Errorf("hump at peak = %v, want 1", h)
	}
	for v := p.VPPMin; v <= 2.5; v += 0.01 {
		if h := m.hump(v); h < 0 || h > 1 {
			t.Fatalf("hump(%v) = %v out of [0,1]", v, h)
		}
	}
}

func TestInteriorVPPRecModuleHCPeaks(t *testing.T) {
	// A2's recommended VPP (2.1 V) should show a higher module-level
	// ground-truth HCfirst than both endpoints, mirroring Table 3.
	m := newTestModel(t, "A2")
	p := m.Profile()
	minAt := func(v float64) float64 {
		min := math.Inf(1)
		for row := 0; row < 1500; row++ {
			if hc := m.GroundTruthHCFirst(0, row, v); hc < min {
				min = hc
			}
		}
		return min
	}
	nom, rec, low := minAt(2.5), minAt(2.1), minAt(p.VPPMin)
	if rec <= nom || rec <= low {
		t.Errorf("A2 HCfirst: nominal %v, rec %v, vppmin %v; want rec highest", nom, rec, low)
	}
}

func TestTemperatureFactorNeutralAt50C(t *testing.T) {
	// The paper characterizes RowHammer at 50C; Table 3 calibration must be
	// untouched there, and flips must vary when the die heats or cools.
	m := newTestModel(t, "B0")
	varied := 0
	for row := 0; row < 40; row++ {
		at50 := m.HammerFlipCount(0, row, pattern.RowStripeFF, 2.5, 300_000, 50, 0)
		again := m.HammerFlipCount(0, row, pattern.RowStripeFF, 2.5, 300_000, 50, 0)
		if at50 != again {
			t.Fatalf("row %d: 50C measurement not reproducible", row)
		}
		at85 := m.HammerFlipCount(0, row, pattern.RowStripeFF, 2.5, 300_000, 85, 0)
		if at85 != at50 {
			varied++
		}
	}
	if varied == 0 {
		t.Error("temperature had no effect on any of 40 rows")
	}
}

func TestTemperatureEffectMostlyIncreases(t *testing.T) {
	// The mean temperature coefficient is positive: across many rows, more
	// flips at 85C than at 50C in aggregate.
	m := newTestModel(t, "B0")
	tot50, tot85 := 0, 0
	for row := 0; row < 150; row++ {
		tot50 += m.HammerFlipCount(0, row, pattern.RowStripeFF, 2.5, 300_000, 50, 0)
		tot85 += m.HammerFlipCount(0, row, pattern.RowStripeFF, 2.5, 300_000, 85, 0)
	}
	if tot85 <= tot50 {
		t.Errorf("aggregate flips at 85C (%d) not above 50C (%d)", tot85, tot50)
	}
}
