package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/softmc"
)

func testGeometry() physics.Geometry {
	return physics.Geometry{Banks: 2, RowsPerBank: 2048, RowBytes: 512, SubarrayRows: 512}
}

func newTester(t *testing.T, name string, cfg Config) *Tester {
	t.Helper()
	p, ok := physics.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	mod := dram.NewModule(p, testGeometry(), 11, dram.WithScheme(mapping.Direct{}))
	return NewTester(softmc.New(mod), cfg)
}

func TestSelectRows(t *testing.T) {
	rows := SelectRows(testGeometry(), 4, 8)
	if len(rows) != 32 {
		t.Fatalf("got %d rows, want 32", len(rows))
	}
	if rows[0] != 0 || rows[8] != 512 || rows[16] != 1024 || rows[24] != 1536 {
		t.Errorf("chunk starts wrong: %v", rows[:4])
	}
	if SelectRows(testGeometry(), 0, 8) != nil {
		t.Error("zero chunks should return nil")
	}
}

func TestAggressorsForInterior(t *testing.T) {
	tr := newTester(t, "B0", Quick())
	lo, hi, err := tr.AggressorsFor(100)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 99 || hi != 101 {
		t.Errorf("aggressors = %d,%d, want 99,101 (direct scheme)", lo, hi)
	}
}

func TestAggressorsForBoundary(t *testing.T) {
	tr := newTester(t, "B0", Quick())
	for _, victim := range []int{0, 511, 512, 2047} {
		if _, _, err := tr.AggressorsFor(victim); !errors.Is(err, ErrNoAggressors) {
			t.Errorf("victim %d: err = %v, want ErrNoAggressors", victim, err)
		}
	}
}

func TestAggressorsRespectScheme(t *testing.T) {
	p, _ := physics.ProfileByName("B0")
	mod := dram.NewModule(p, testGeometry(), 11, dram.WithScheme(mapping.PairSwap{}))
	tr := NewTester(softmc.New(mod), Quick())
	// Victim logical 101 -> physical 101; neighbors physical 100, 102 ->
	// logical 100, 103 under PairSwap.
	lo, hi, err := tr.AggressorsFor(101)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 100 || hi != 103 {
		t.Errorf("aggressors = %d,%d, want 100,103", lo, hi)
	}
}

func TestMeasureBERZeroAtLowHC(t *testing.T) {
	tr := newTester(t, "A5", Quick()) // strongest module
	ber, err := tr.MeasureBER(100, pattern.RowStripeFF, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ber != 0 {
		t.Errorf("BER at 1K hammers on A5 = %v, want 0", ber)
	}
}

func TestMeasureBERNonzeroAboveThreshold(t *testing.T) {
	tr := newTester(t, "B0", Quick())
	gt := tr.Controller().Module().Model().GroundTruthHCFirst(0, 100, 2.5)
	ber, err := tr.MeasureBER(100, pattern.RowStripeFF, int(3*gt))
	if err != nil {
		t.Fatal(err)
	}
	if ber == 0 {
		t.Error("BER at 3x ground-truth HCfirst = 0")
	}
}

func TestHCFirstSearchBracketsGroundTruth(t *testing.T) {
	cfg := Quick()
	cfg.MinHCStep = 200
	tr := newTester(t, "B3", cfg)
	mod := tr.Controller().Module().Model()
	for _, victim := range []int{100, 200, 300} {
		wcdp, err := tr.SelectWCDP(victim)
		if err != nil {
			t.Fatal(err)
		}
		hc, err := tr.HCFirstSearch(victim, wcdp, cfg.Iterations)
		if err != nil {
			t.Fatal(err)
		}
		gt := mod.GroundTruthHCFirst(0, victim, 2.5)
		if gt > float64(cfg.RefHC)*2 {
			continue // row too strong to measure in the search range
		}
		if math.Abs(float64(hc)-gt) > 0.2*gt {
			t.Errorf("victim %d: measured HCfirst %d vs ground truth %.0f (>20%% off)", victim, hc, gt)
		}
	}
}

func TestHCFirstIncreasesAtReducedVPPOnB3(t *testing.T) {
	cfg := Quick()
	cfg.MinHCStep = 500
	tr := newTester(t, "B3", cfg)
	mod := tr.Controller().Module()

	measureMin := func(vpp float64) int {
		mod.SetVPP(vpp)
		min := 1 << 30
		for _, victim := range []int{100, 150, 200, 250, 300} {
			hc, err := tr.HCFirstSearch(victim, pattern.RowStripeFF, cfg.Iterations)
			if err != nil {
				t.Fatal(err)
			}
			if hc < min {
				min = hc
			}
		}
		return min
	}
	nom := measureMin(2.5)
	low := measureMin(1.6)
	if low <= nom {
		t.Errorf("B3 min HCfirst at 1.6V (%d) not above nominal (%d)", low, nom)
	}
}

func TestCharacterizeRow(t *testing.T) {
	tr := newTester(t, "B0", Quick())
	res, err := tr.CharacterizeRow(120, 0) // auto-select WCDP
	if err != nil {
		t.Fatal(err)
	}
	if !res.WCDP.Valid() {
		t.Error("WCDP not selected")
	}
	if res.HCFirst <= 0 {
		t.Errorf("HCfirst = %d", res.HCFirst)
	}
	if res.BER <= 0 {
		t.Errorf("BER = %v (B0 flips readily at 300K)", res.BER)
	}
}

func TestWCDPSelectsNearWorstPattern(t *testing.T) {
	// Measurement noise (~4.5% per test) can shadow the smallest pattern
	// deltas (2%), exactly as on real hardware; the selection must still
	// land on a pattern whose effectiveness is close to the true worst.
	cfg := Quick()
	cfg.MinHCStep = 200
	tr := newTester(t, "B0", cfg)
	mod := tr.Controller().Module().Model()
	exact := 0
	victims := []int{100, 140, 180, 220, 260}
	for _, v := range victims {
		got, err := tr.SelectWCDP(v)
		if err != nil {
			t.Fatal(err)
		}
		f := mod.PatternFactor(0, v, got, 2.5)
		if f < 0.90 {
			t.Errorf("victim %d: selected %v with effectiveness %.3f, want >= 0.90", v, got, f)
		}
		if f == 1 {
			exact++
		}
	}
	if exact == 0 {
		t.Error("WCDP selection never found the exact worst pattern across 5 victims")
	}
}

func TestTRCDMinSearchMatchesGroundTruth(t *testing.T) {
	tr := newTester(t, "A3", Quick())
	mod := tr.Controller().Module().Model()
	for _, row := range []int{50, 90} {
		min, err := tr.TRCDMinSearch(row, pattern.CheckerAA, 3)
		if err != nil {
			t.Fatal(err)
		}
		gt := mod.GroundTruthRowTRCDNS(0, row, 2.5)
		// The measured minimum sits on the 1.5ns grid at or just above the
		// requirement.
		if min < gt-1.6 || min > gt+1.6 {
			t.Errorf("row %d: measured tRCDmin %.1f vs ground truth %.2f", row, min, gt)
		}
	}
}

func TestTRCDMinGrowsAtReducedVPP(t *testing.T) {
	tr := newTester(t, "A0", Quick()) // failing module, strong response
	mod := tr.Controller().Module()
	mod.SetVPP(2.5)
	nom, err := tr.TRCDMinSearch(60, pattern.CheckerAA, 3)
	if err != nil {
		t.Fatal(err)
	}
	mod.SetVPP(mod.Profile().VPPMin)
	low, err := tr.TRCDMinSearch(60, pattern.CheckerAA, 3)
	if err != nil {
		t.Fatal(err)
	}
	if low <= nom {
		t.Errorf("tRCDmin at VPPmin (%.1f) not above nominal (%.1f)", low, nom)
	}
	if low <= physics.TRCDNominalNS {
		t.Errorf("A0 at VPPmin should exceed nominal 13.5ns, got %.1f", low)
	}
	if low >= mod.Profile().TRCDFixNS {
		t.Errorf("A0 at VPPmin should stay under the 24ns fix, got %.1f", low)
	}
}

func TestCharacterizeRowTRCD(t *testing.T) {
	tr := newTester(t, "C0", Quick())
	res, err := tr.CharacterizeRowTRCD(70, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WCDP.Valid() || res.MinReliableNS <= 0 {
		t.Errorf("result = %+v", res)
	}
	if res.MinReliableNS >= physics.TRCDNominalNS {
		t.Errorf("C0 (passing module) tRCDmin = %.1f, want < 13.5", res.MinReliableNS)
	}
}

func TestRetentionSweepCleanAtShortWindows(t *testing.T) {
	cfg := Quick()
	tr := newTester(t, "A3", cfg)
	tr.Controller().Module().SetTemperature(physics.RetentionTestTempC)
	res, err := tr.RetentionSweep(80, pattern.CheckerAA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfg.RetentionWindowsMS) {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.WindowMS <= 32 && p.BER != 0 {
			t.Errorf("BER %v at %vms, want 0", p.BER, p.WindowMS)
		}
	}
}

func TestRetentionSweepFailsAtLongWindows(t *testing.T) {
	cfg := Quick()
	tr := newTester(t, "C0", cfg)
	tr.Controller().Module().SetTemperature(physics.RetentionTestTempC)
	// Aggregate across rows: per-row retention varies.
	totalAt16s := 0.0
	for _, row := range []int{80, 120, 160} {
		res, err := tr.RetentionSweep(row, pattern.CheckerAA)
		if err != nil {
			t.Fatal(err)
		}
		totalAt16s += res.BERAt(16384)
	}
	if totalAt16s == 0 {
		t.Error("no retention failures at 16s on Mfr C rows")
	}
}

// TestRetentionSweepHeapPerRow bounds the heap Alg. 3 leaves behind per
// tested row at paper geometry (8 KiB rows of 65536 cells), where a row's
// whole retention order is 256 KiB. A row keeps its 8 KiB image and the
// prefix of its order that reads have used: 16 KiB, or a longer prefix
// once a long window fails more cells than that.
func TestRetentionSweepHeapPerRow(t *testing.T) {
	const rows, perRowMax = 48, 64 << 10
	p, _ := physics.ProfileByName("C0")
	geom := physics.FullGeometry()
	mod := dram.NewModule(p, geom, 2022)
	mod.SetTemperature(physics.RetentionTestTempC)
	mod.SetVPP(p.VPPMin)
	tr := NewTester(softmc.New(mod), Default())
	heapInuse := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	selected := SelectRows(geom, 1, rows+1)
	// The first row allocates what every row shares: the bank's read masks
	// and the row-table pages.
	if _, err := tr.RetentionSweep(selected[0], pattern.CheckerAA); err != nil {
		t.Fatal(err)
	}
	before := heapInuse()
	failed := 0
	for _, row := range selected[1:] {
		res, err := tr.RetentionSweep(row, pattern.CheckerAA)
		if err != nil {
			t.Fatal(err)
		}
		if res.BERAt(16384) > 0 {
			failed++
		}
	}
	perRow := (heapInuse() - before) / rows
	runtime.KeepAlive(mod)
	if failed == 0 {
		t.Fatal("no row failed at 16 s; the sweep never sampled a retention order")
	}
	t.Logf("%d rows (%d failing at 16 s): %d B of heap per row", rows, failed, perRow)
	if perRow > perRowMax {
		t.Errorf("Alg. 3 keeps %d B of heap per row, want at most %d", perRow, perRowMax)
	}
}

func TestRetentionFirstFailingWindow(t *testing.T) {
	r := RetentionResult{Points: []RetentionPoint{
		{WindowMS: 64, BER: 0}, {WindowMS: 128, BER: 0}, {WindowMS: 256, BER: 0.001},
	}}
	if got := r.FirstFailingWindowMS(); got != 256 {
		t.Errorf("first failing window = %v", got)
	}
	clean := RetentionResult{Points: []RetentionPoint{{WindowMS: 64, BER: 0}}}
	if got := clean.FirstFailingWindowMS(); got != 0 {
		t.Errorf("clean row first failing window = %v, want 0", got)
	}
}

func TestSelectRetentionWCDPRuns(t *testing.T) {
	cfg := Quick()
	cfg.RetentionWindowsMS = []float64{64, 1024, 16384} // shorter ladder for the pre-pass
	tr := newTester(t, "C0", cfg)
	tr.Controller().Module().SetTemperature(physics.RetentionTestTempC)
	k, err := tr.SelectRetentionWCDP(90)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Valid() {
		t.Errorf("invalid retention WCDP %v", k)
	}
}

func TestMeasureBERSeriesCV(t *testing.T) {
	// The per-iteration noise should produce a small but nonzero CV on a
	// readily flipping module (§4.6).
	tr := newTester(t, "B0", Quick())
	series, err := tr.MeasureBERSeries(100, pattern.RowStripeFF, 300000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 10 {
		t.Fatalf("series length %d", len(series))
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= 10
	if mean == 0 {
		t.Fatal("B0 produced no flips at 300K")
	}
	varSum := 0.0
	for _, v := range series {
		varSum += (v - mean) * (v - mean)
	}
	cv := math.Sqrt(varSum/10) / mean
	if cv < 0 || cv > 0.5 {
		t.Errorf("CV = %v, want within (0, 0.5)", cv)
	}
}

// hcSearchConfig returns a small search whose bisection probes are easy to
// trace: starting at RefHC=10000 with steps 8000, 4000, 2000 and a 1000
// grain.
func hcSearchConfig() Config {
	cfg := Quick()
	cfg.RefHC = 10_000
	cfg.InitialHCStep = 8_000
	cfg.MinHCStep = 1_000
	return cfg
}

// thresholdMeasure mocks the controller measurement with a deterministic
// flip threshold: any hammer count at or above the threshold flips.
func thresholdMeasure(threshold int, probes *[]int) func(hc int) (float64, error) {
	return func(hc int) (float64, error) {
		if probes != nil {
			*probes = append(*probes, hc)
		}
		if hc >= threshold {
			return 0.01, nil
		}
		return 0, nil
	}
}

// TestHCFirstSearchVerifiesUndershoot is the regression test for the Alg. 1
// off-by-one: with a flip threshold of 12500 the bisection probes 10000
// (clean), 18000 (flip), 14000 (flip) and blindly lands on 12000 — a count
// at which no flip was ever measured, below every probe that flipped. The
// verification pass must detect the clean candidate and step up to 13000,
// the lowest flipping count on the grain grid.
func TestHCFirstSearchVerifiesUndershoot(t *testing.T) {
	var probes []int
	hc, err := hcFirstSearch(context.Background(), hcSearchConfig(),
		thresholdMeasure(12_500, &probes))
	if err != nil {
		t.Fatal(err)
	}
	if hc != 13_000 {
		t.Errorf("hc = %d, want 13000 (probes: %v)", hc, probes)
	}
	if ber, _ := thresholdMeasure(12_500, nil)(hc); ber == 0 {
		t.Errorf("returned hc %d does not flip", hc)
	}
}

// TestHCFirstSearchRefinesOvershoot: with a threshold of 10500 the bisection
// also lands on 12000, which flips — but 11000 flips too. The verification
// pass must walk down to the minimal flipping grid point.
func TestHCFirstSearchRefinesOvershoot(t *testing.T) {
	hc, err := hcFirstSearch(context.Background(), hcSearchConfig(),
		thresholdMeasure(10_500, nil))
	if err != nil {
		t.Fatal(err)
	}
	if hc != 11_000 {
		t.Errorf("hc = %d, want 11000", hc)
	}
}

// TestHCFirstSearchReturnsFlippingCount sweeps thresholds across the whole
// search range: wherever the bisection lands, the returned count must flip
// whenever the threshold is within the search's reach.
func TestHCFirstSearchReturnsFlippingCount(t *testing.T) {
	cfg := hcSearchConfig()
	for threshold := 3_000; threshold <= 23_000; threshold += 500 {
		measure := thresholdMeasure(threshold, nil)
		hc, err := hcFirstSearch(context.Background(), cfg, measure)
		if err != nil {
			t.Fatal(err)
		}
		ber, _ := measure(hc)
		if ber == 0 {
			t.Errorf("threshold %d: returned hc %d never flips", threshold, hc)
		}
		if hc < threshold-cfg.MinHCStep && ber > 0 {
			t.Errorf("threshold %d: hc %d flips below the threshold?", threshold, hc)
		}
	}
}

// TestHCFirstSearchStrongRowKeepsCeiling: a threshold beyond the search
// range can never be verified; the search reports its ceiling estimate
// rather than looping forever.
func TestHCFirstSearchStrongRowKeepsCeiling(t *testing.T) {
	var probes []int
	hc, err := hcFirstSearch(context.Background(), hcSearchConfig(),
		thresholdMeasure(1_000_000, &probes))
	if err != nil {
		t.Fatal(err)
	}
	if hc < 24_000 || hc > 28_000 {
		t.Errorf("hc = %d, want the search ceiling ~24000..28000 (probes: %v)", hc, probes)
	}
}

func TestHCFirstSearchHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := hcFirstSearch(ctx, hcSearchConfig(), thresholdMeasure(12_500, nil))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestAggressorsForProbedAdjacency pins the probed-map precedence rules: a
// probed pair overrides the scheme, a probed boundary row (fewer than two
// neighbors) is ErrNoAggressors rather than a fabricated scheme pair, and
// only unprobed victims fall back to the vendor scheme.
func TestAggressorsForProbedAdjacency(t *testing.T) {
	tr := newTester(t, "B0", Quick())
	tr.UseAdjacency(mapping.AdjacencyMap{
		100: {42, 77}, // probed interior pair, deliberately unlike ±1
		200: {199},    // probed subarray boundary: single neighbor
		250: {},       // probed but empty: nothing usable either
	})

	lo, hi, err := tr.AggressorsFor(100)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 42 || hi != 77 {
		t.Errorf("probed pair = %d,%d, want 42,77", lo, hi)
	}

	for _, victim := range []int{200, 250} {
		if _, _, err := tr.AggressorsFor(victim); !errors.Is(err, ErrNoAggressors) {
			t.Errorf("probed boundary victim %d: err = %v, want ErrNoAggressors", victim, err)
		}
	}

	// Unprobed victims still resolve through the scheme.
	lo, hi, err = tr.AggressorsFor(300)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 299 || hi != 301 {
		t.Errorf("unprobed fallback = %d,%d, want 299,301", lo, hi)
	}
}

func TestBoundaryVictimErrors(t *testing.T) {
	tr := newTester(t, "B0", Quick())
	if _, err := tr.MeasureBER(0, pattern.RowStripeFF, 1000); !errors.Is(err, ErrNoAggressors) {
		t.Errorf("boundary victim err = %v", err)
	}
	if _, err := tr.CharacterizeRow(512, 0); !errors.Is(err, ErrNoAggressors) {
		t.Errorf("subarray-boundary victim err = %v", err)
	}
}

func TestRetentionFirstFailBinarySearch(t *testing.T) {
	cfg := Quick()
	tr := newTester(t, "B6", cfg) // fails at 64ms at VPPmin
	mod := tr.Controller().Module()
	mod.SetVPP(mod.Profile().VPPMin)
	mod.SetTemperature(physics.RetentionTestTempC)

	// Find a row that fails at 64ms.
	weakRow := -1
	for row := 100; row < 400; row++ {
		ber, err := tr.measureRetentionBER(row, pattern.CheckerAA, 64)
		if err != nil {
			t.Fatal(err)
		}
		if ber > 0 {
			weakRow = row
			break
		}
	}
	if weakRow < 0 {
		t.Fatal("no weak row found on B6 at VPPmin")
	}
	first, err := tr.RetentionFirstFailMS(weakRow, pattern.CheckerAA, 32, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first <= 32 || first > 64 {
		t.Errorf("first failing window = %vms, want in (32, 64]", first)
	}
	// Verify the boundary: the row must hold at first-2ms and fail at first.
	berBelow, err := tr.measureRetentionBER(weakRow, pattern.CheckerAA, first-2)
	if err != nil {
		t.Fatal(err)
	}
	if berBelow > 0 {
		t.Errorf("row already fails %vms below the found boundary", 2.0)
	}
}

func TestRetentionFirstFailCleanRow(t *testing.T) {
	cfg := Quick()
	tr := newTester(t, "A3", cfg) // clean module
	mod := tr.Controller().Module()
	mod.SetTemperature(physics.RetentionTestTempC)
	first, err := tr.RetentionFirstFailMS(100, pattern.CheckerAA, 32, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Errorf("clean row reported first failure at %vms", first)
	}
}
