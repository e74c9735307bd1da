package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/report"
)

// testOptions is a tightly scoped campaign for fast tests.
func testOptions(modules ...string) Options {
	o := Default()
	o.Geometry = physics.Geometry{Banks: 1, RowsPerBank: 4096, RowBytes: 512, SubarrayRows: 512}
	o.Config = core.Quick()
	o.Config.MinHCStep = 2000
	o.Chunks = 2
	o.RowsPerChunk = 4
	o.VPPStride = 3
	o.SpiceMCRuns = 30
	o.RetentionVPPLevels = []float64{2.5, 1.9, 1.5}
	o.ModuleNames = modules
	return o
}

func TestModuleSweepB3ShowsHCFirstIncrease(t *testing.T) {
	prof, _ := physics.ProfileByName("B3")
	sw, err := RunModuleSweep(t.Context(), testOptions("B3"), prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) < 2 {
		t.Fatalf("only %d sweep points", len(sw.Points))
	}
	nom, min := sw.Nominal(), sw.AtVPPMin()
	if nom.VPP != 2.5 || math.Abs(min.VPP-1.6) > 1e-9 {
		t.Fatalf("sweep endpoints %v, %v", nom.VPP, min.VPP)
	}
	// B3: HCfirst up ~27%, BER down ~60% at VPPmin (Table 3).
	hcRatio := min.ModuleHCFirst / nom.ModuleHCFirst
	if hcRatio < 1.05 || hcRatio > 1.6 {
		t.Errorf("B3 module HCfirst ratio = %.3f, want ~1.27", hcRatio)
	}
	berRatio := min.ModuleBER / nom.ModuleBER
	if berRatio > 0.8 {
		t.Errorf("B3 module BER ratio = %.3f, want ~0.4", berRatio)
	}
	// Normalized row means move the same directions.
	if min.NormHC.Mean <= 1 {
		t.Errorf("mean normalized HCfirst at VPPmin = %.3f, want > 1", min.NormHC.Mean)
	}
	if min.NormBER.Mean >= 1 {
		t.Errorf("mean normalized BER at VPPmin = %.3f, want < 1", min.NormBER.Mean)
	}
}

func TestModuleSweepNominalMatchesTable3(t *testing.T) {
	for _, name := range []string{"B0", "A3"} {
		prof, _ := physics.ProfileByName(name)
		sw, err := RunModuleSweep(t.Context(), testOptions(name), prof)
		if err != nil {
			t.Fatal(err)
		}
		nom := sw.Nominal()
		// The module-level minimum over a small row sample sits at or above
		// the Table 3 value (which is the minimum over 4K rows).
		if nom.ModuleHCFirst < prof.Nominal.HCFirst*0.9 {
			t.Errorf("%s: measured module HCfirst %.0f below Table 3 %.0f",
				name, nom.ModuleHCFirst, prof.Nominal.HCFirst)
		}
		if nom.ModuleHCFirst > prof.Nominal.HCFirst*4 {
			t.Errorf("%s: measured module HCfirst %.0f implausibly above Table 3 %.0f",
				name, nom.ModuleHCFirst, prof.Nominal.HCFirst)
		}
		// Mean BER within a factor of ~3 of the table value.
		if nom.ModuleBER < prof.Nominal.BER/3 || nom.ModuleBER > prof.Nominal.BER*3 {
			t.Errorf("%s: measured BER %.2e vs Table 3 %.2e", name, nom.ModuleBER, prof.Nominal.BER)
		}
	}
}

func TestRowHammerStudyRenders(t *testing.T) {
	st := runStudy(t, testOptions("B3", "C0"), StudyNameRowHammer, AssembleRowHammerStudy)
	if len(st.Sweeps) != 2 {
		t.Fatalf("sweeps = %d", len(st.Sweeps))
	}
	var buf bytes.Buffer
	for _, render := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return st.RenderFig3(report.NewText(b)) },
		func(b *bytes.Buffer) error { return st.RenderFig4(report.NewText(b)) },
		func(b *bytes.Buffer) error { return st.RenderFig5(report.NewText(b)) },
		func(b *bytes.Buffer) error { return st.RenderFig6(report.NewText(b)) },
		func(b *bytes.Buffer) error { return st.Table3().Render(b) },
		func(b *bytes.Buffer) error { return st.Section5Aggregates().Render(report.NewText(b)) },
	} {
		buf.Reset()
		if err := render(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Error("renderer produced no output")
		}
	}
}

func TestSection5AggregatesDirections(t *testing.T) {
	st := runStudy(t, testOptions("B3", "C0", "C6"), StudyNameRowHammer, AssembleRowHammerStudy)
	a := st.Section5Aggregates()
	// These three modules all show the dominant trend; aggregates must
	// point the right way even on a small sample.
	if a.MeanHCIncreasePct <= 0 {
		t.Errorf("mean HCfirst change = %.1f%%, want positive", a.MeanHCIncreasePct)
	}
	if a.MeanBERChangePct >= 0 {
		t.Errorf("mean BER change = %.1f%%, want negative", a.MeanBERChangePct)
	}
	if a.FracRowsHCUp <= 0.5 {
		t.Errorf("HCfirst-increasing row fraction = %.2f, want majority", a.FracRowsHCUp)
	}
	if a.FracRowsBERDown <= 0.5 {
		t.Errorf("BER-decreasing row fraction = %.2f, want majority", a.FracRowsBERDown)
	}
}

func TestTRCDSweepPassingAndFailing(t *testing.T) {
	o := testOptions()
	passProf, _ := physics.ProfileByName("C0")
	pass, err := RunTRCDSweep(t.Context(), o, passProf)
	if err != nil {
		t.Fatal(err)
	}
	if pass.ExceedsNominal() {
		t.Error("C0 should stay within nominal tRCD")
	}
	// The 1.5ns measurement grid may quantize a small latency shift to
	// zero for an individual module; it must never be negative or huge.
	gb := pass.GuardbandReduction()
	if gb < 0 || gb > 0.7 {
		t.Errorf("C0 guardband reduction = %.2f, want within [0, 0.7]", gb)
	}

	failProf, _ := physics.ProfileByName("B2")
	fail, err := RunTRCDSweep(t.Context(), o, failProf)
	if err != nil {
		t.Fatal(err)
	}
	if !fail.ExceedsNominal() {
		t.Error("B2 should exceed nominal tRCD at reduced VPP")
	}
	if !fail.FixVerified {
		t.Error("B2's 15ns fix did not verify")
	}
}

func TestTRCDStudySummary(t *testing.T) {
	o := testOptions("C0", "B2", "A3", "B0", "C2")
	st := runStudy(t, o, StudyNameTRCD, AssembleTRCDStudy)
	s := st.Summary()
	if s.FailingModules != 1 || s.PassingModules != 4 {
		t.Errorf("summary = %+v", s)
	}
	if s.MeanGuardbandReduction < 0 || s.MeanGuardbandReduction > 0.6 {
		t.Errorf("mean guardband reduction = %.2f across passing modules", s.MeanGuardbandReduction)
	}
	if !s.AllFixesVerified {
		t.Error("fixes not verified")
	}
	var buf bytes.Buffer
	if err := st.RenderFig7(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := s.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "guardband") {
		t.Error("summary text missing guardband line")
	}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "272 chips") {
		t.Errorf("Table 1 missing chip total:\n%s", out)
	}
}

func TestTable2Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"16.8 fF", "100.5 fF", "55 nm"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestWaveformsShapes(t *testing.T) {
	wf, err := RunWaveforms(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(wf.VPP) != len(spiceSweepVPPs) {
		t.Fatalf("waveform levels = %d", len(wf.VPP))
	}
	// The nominal-VPP bitline must end near VDD; the 1.7V cell must end
	// near its saturation level.
	last := func(xs []float64) float64 { return xs[len(xs)-1] }
	if v := last(wf.Bitline[0]); v < 1.1 {
		t.Errorf("nominal bitline ends at %.3f", v)
	}
	for i, vpp := range wf.VPP {
		if vpp == 1.7 {
			if v := last(wf.Cell[i]); math.Abs(v-0.93) > 0.05 {
				t.Errorf("1.7V cell ends at %.3f, want ~0.93 (saturation)", v)
			}
		}
	}
	var buf bytes.Buffer
	if err := wf.RenderFig8a(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := wf.RenderFig9a(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestMCStudyShapes(t *testing.T) {
	o := testOptions()
	st := runStudy(t, o, StudyNameSpiceMC, AssembleMCStudy)
	// Mean tRCDmin grows monotonically (within noise) as VPP drops, and
	// every level above 1.7V is fully reliable.
	first := st.Results[0]
	last := st.Results[len(st.Results)-1]
	if last.MeanTRCDminNS() <= first.MeanTRCDminNS() {
		t.Errorf("tRCDmin did not grow: %.2f -> %.2f", first.MeanTRCDminNS(), last.MeanTRCDminNS())
	}
	if first.ReliableFraction() != 1 {
		t.Errorf("2.5V reliability = %v", first.ReliableFraction())
	}
	var buf bytes.Buffer
	if err := st.RenderFig8b(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := st.RenderFig9b(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestRetentionStudyShapes(t *testing.T) {
	o := testOptions("A3", "B0", "C0")
	o.RowsPerChunk = 3
	st := runStudy(t, o, StudyNameRetention, AssembleRetentionStudy)
	for _, mfr := range []physics.Manufacturer{physics.MfrA, physics.MfrB, physics.MfrC} {
		mean := st.MeanBER[mfr]
		if len(mean) == 0 {
			t.Fatalf("no data for mfr %v", mfr)
		}
		// BER grows with the window at every VPP with data.
		for vi := range mean {
			for wi := 1; wi < len(mean[vi]); wi++ {
				if mean[vi][wi] < mean[vi][wi-1]-1e-9 {
					t.Errorf("mfr %v vpp idx %d: BER fell from %.2e to %.2e",
						mfr, vi, mean[vi][wi-1], mean[vi][wi])
				}
			}
		}
		// No flips at or below 32 ms anywhere.
		for vi := range mean {
			for wi, win := range st.WindowsMS {
				if win <= 32 && mean[vi][wi] != 0 {
					t.Errorf("mfr %v: BER %.2e at %vms", mfr, mean[vi][wi], win)
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := st.RenderFig10a(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := st.RenderFig10b(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestWordAnalysisFig11(t *testing.T) {
	// One failing B module, one failing C module, one clean A module.
	o := testOptions("B6", "C5", "A3")
	o.RowsPerChunk = 120
	o.Chunks = 2
	wa := runStudy(t, o, StudyNameWordAnalysis, AssembleWordAnalysis)
	if !wa.SECDEDSafe {
		t.Error("multi-flip words found at smallest failing windows (Obsv. 14 violated)")
	}
	// A3 must be clean and B6 must fail; C5's weak-row fraction (0.2%) may
	// legitimately produce zero failing rows in a small sample.
	if wa.CleanModules64 < 1 || wa.CleanModules64 > 2 {
		t.Errorf("clean modules at 64ms = %d of %d, want 1 or 2", wa.CleanModules64, wa.TotalModules)
	}
	// B rows fail with four single-flip words.
	if frac, ok := wa.Distribution64[physics.MfrB][4]; !ok || frac < 0.05 {
		t.Errorf("MfrB 4-word fraction = %v, want ~0.155", frac)
	}
	if len(wa.Distribution64[physics.MfrA]) != 0 {
		t.Errorf("MfrA shows 64ms failures: %v", wa.Distribution64[physics.MfrA])
	}
	var buf bytes.Buffer
	if err := wa.RenderFig11(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestCVStudyPercentiles(t *testing.T) {
	o := testOptions("B0", "B7")
	st := runStudy(t, o, StudyNameCV, AssembleCVStudy)
	if st.CVs.N() == 0 {
		t.Fatal("no CV series measured")
	}
	// CV percentiles should be small and ordered (paper: 0.08/0.13/0.24).
	if st.P90 <= 0 || st.P90 > 0.4 {
		t.Errorf("P90 CV = %v", st.P90)
	}
	if st.P95 < st.P90 || st.P99 < st.P95 {
		t.Errorf("percentiles not ordered: %v %v %v", st.P90, st.P95, st.P99)
	}
	var buf bytes.Buffer
	if err := st.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestAttackComparison(t *testing.T) {
	o := testOptions()
	cmp, err := RunAttackComparison(t.Context(), o, "B0", 60000)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.DoubleFlips == 0 {
		t.Fatal("double-sided attack flipped nothing")
	}
	if cmp.SingleFlips >= cmp.DoubleFlips {
		t.Errorf("single (%d) >= double (%d)", cmp.SingleFlips, cmp.DoubleFlips)
	}
	if cmp.ManySidedFlips >= cmp.DoubleFlips {
		t.Errorf("many-sided (%d) >= double (%d)", cmp.ManySidedFlips, cmp.DoubleFlips)
	}
	var buf bytes.Buffer
	if err := cmp.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestWCDPStability(t *testing.T) {
	o := testOptions()
	st, err := RunWCDPStability(t.Context(), o, "C0")
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsTested == 0 {
		t.Fatal("no rows tested")
	}
	// Most rows keep their WCDP (paper: 97.6% stable); measurement noise
	// makes the simulated fraction higher but it must remain a minority.
	if frac := float64(st.RowsChanged) / float64(st.RowsTested); frac > 0.5 {
		t.Errorf("WCDP changed for %.0f%% of rows", frac*100)
	}
	var buf bytes.Buffer
	if err := st.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestTRRAblation(t *testing.T) {
	o := testOptions()
	ab, err := RunTRRAblation(t.Context(), o, "B0", 64000)
	if err != nil {
		t.Fatal(err)
	}
	if ab.FlipsStarved == 0 {
		t.Fatal("starved attack flipped nothing; raise the hammer count")
	}
	if ab.FlipsWithREF >= ab.FlipsStarved {
		t.Errorf("TRR did not reduce flips: %d with REF vs %d starved",
			ab.FlipsWithREF, ab.FlipsStarved)
	}
	var buf bytes.Buffer
	if err := ab.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestDefenseCost(t *testing.T) {
	prof, _ := physics.ProfileByName("B3")
	sw, err := RunModuleSweep(t.Context(), testOptions("B3"), prof)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := RunDefenseCost(sw)
	if err != nil {
		t.Fatal(err)
	}
	// B3's HCfirst rises at VPPmin, so both defenses get cheaper.
	first, last := 0, len(dc.VPP)-1
	if dc.PARAProb[last] >= dc.PARAProb[first] {
		t.Errorf("PARA probability did not shrink: %.2e -> %.2e", dc.PARAProb[first], dc.PARAProb[last])
	}
	if dc.Graphene[last] >= dc.Graphene[first] {
		t.Errorf("Graphene counters did not shrink: %d -> %d", dc.Graphene[first], dc.Graphene[last])
	}
	var buf bytes.Buffer
	if err := dc.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestSECDEDCoverage(t *testing.T) {
	o := testOptions()
	o.RowsPerChunk = 60
	cov, err := RunSECDEDCoverage(t.Context(), o, "B6")
	if err != nil {
		t.Fatal(err)
	}
	if len(cov.FailingRows) != len(cov.WindowsMS) {
		t.Fatalf("rows per window = %d", len(cov.FailingRows))
	}
	if cov.FailingRows[0] == 0 {
		t.Error("B6 shows no failing rows at 64ms/VPPmin")
	}
	if cov.CorrectableRows[0] != cov.FailingRows[0] {
		t.Errorf("64ms coverage %d/%d, want full (Obsv. 14)",
			cov.CorrectableRows[0], cov.FailingRows[0])
	}
	var buf bytes.Buffer
	if err := cov.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsHelpers(t *testing.T) {
	o := Default()
	profs, err := o.profiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 30 {
		t.Errorf("default profiles = %d", len(profs))
	}
	o.ModuleNames = []string{"B3", "C0"}
	profs, err = o.profiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 2 || profs[0].Name != "B3" || profs[1].Name != "C0" {
		t.Errorf("filtered profiles = %v", profs)
	}
	prof, _ := physics.ProfileByName("B3")
	o.VPPStride = 3
	levels := o.vppLevels(prof)
	if levels[0] != 2.5 || levels[len(levels)-1] != 1.6 {
		t.Errorf("strided levels endpoints: %v", levels)
	}
	if p := Paper(); p.RowsPerChunk != 1000 || p.Config.Iterations != 10 {
		t.Error("Paper() options lost full-scale parameters")
	}
}

func TestOptionsValidateRejectsUnknownModules(t *testing.T) {
	o := Default()
	o.ModuleNames = []string{"B3", "XX", "C0"}
	err := o.Validate()
	if err == nil {
		t.Fatal("unknown module name accepted")
	}
	// The error must name the offender and teach the valid labels.
	for _, want := range []string{"XX", "A0", "C9"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("validation error missing %q: %v", want, err)
		}
	}
	o.ModuleNames = []string{"B3", "B3"}
	if err := o.Validate(); err == nil {
		t.Fatal("duplicate module name accepted")
	}
	o.ModuleNames = nil
	if err := o.Validate(); err != nil {
		t.Fatalf("empty module list rejected: %v", err)
	}
}

func TestStudiesStopOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	o := testOptions("B3")
	for _, study := range ShardableStudies() {
		units, err := PlanStudy(o, study)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunUnits(ctx, o, study, units, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: RunUnits error = %v, want context.Canceled", study, err)
		}
	}
	if _, err := RunWaveforms(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("RunWaveforms error = %v, want context.Canceled", err)
	}
}

func TestRowHammerStudyDeterministicAcrossWorkerCounts(t *testing.T) {
	base := testOptions("B3", "C0", "A3")
	render := func(jobs int) string {
		o := base
		o.Jobs = jobs
		st := runStudy(t, o, StudyNameRowHammer, AssembleRowHammerStudy)
		var buf bytes.Buffer
		enc := report.NewText(&buf)
		if err := enc.Table(st.Table3()); err != nil {
			t.Fatal(err)
		}
		if err := st.RenderFig5(enc); err != nil {
			t.Fatal(err)
		}
		if err := st.Section5Aggregates().Render(enc); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("output differs between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			serial, parallel)
	}
}

func TestTempInteraction(t *testing.T) {
	o := testOptions()
	ti, err := RunTempInteraction(t.Context(), o, "B3", []float64{50, 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(ti.HCFirst) != 2 || len(ti.HCFirst[0]) != 2 {
		t.Fatalf("grid shape: %v", ti.HCFirst)
	}
	// At both temperatures, reducing VPP raises B3's module HCfirst.
	for tiIdx := range ti.Temps {
		if ti.HCFirst[tiIdx][1] <= ti.HCFirst[tiIdx][0] {
			t.Errorf("temp %v: HCfirst at VPPmin (%v) not above nominal (%v)",
				ti.Temps[tiIdx], ti.HCFirst[tiIdx][1], ti.HCFirst[tiIdx][0])
		}
	}
	if ti.RowTempSpread.N() == 0 {
		t.Error("no per-row temperature responses collected")
	}
	var buf bytes.Buffer
	if err := ti.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "future work") {
		t.Error("render missing future-work framing")
	}
}

func TestDefenseShowdown(t *testing.T) {
	o := testOptions()
	sd, err := RunDefenseShowdown(t.Context(), o, "B0", 400_000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sd.Attacks) != 4 || len(sd.Defenses) != 3 {
		t.Fatalf("grid: %v x %v", sd.Attacks, sd.Defenses)
	}
	idx := func(names []string, want string) int {
		for i, n := range names {
			if n == want {
				return i
			}
		}
		t.Fatalf("missing %q in %v", want, names)
		return -1
	}
	ds := idx(sd.Attacks, "double-sided")
	decoy := idx(sd.Attacks, "decoy-flood")
	undef := idx(sd.Defenses, "undefended")
	mg := idx(sd.Defenses, "MG-TRR(16)")
	sampler := idx(sd.Defenses, "sampler-TRR(1/64)")

	if sd.Flips[ds][undef] == 0 {
		t.Fatal("double-sided vs undefended flipped nothing")
	}
	if sd.Flips[ds][mg] >= sd.Flips[ds][undef] {
		t.Errorf("MG TRR did not reduce double-sided flips: %d vs %d",
			sd.Flips[ds][mg], sd.Flips[ds][undef])
	}
	if sd.Flips[decoy][sampler] <= sd.Flips[decoy][mg] {
		t.Errorf("decoy flood should hurt the sampler (%d flips) more than MG (%d)",
			sd.Flips[decoy][sampler], sd.Flips[decoy][mg])
	}
	var buf bytes.Buffer
	if err := sd.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestFineRefreshStudy(t *testing.T) {
	o := testOptions()
	o.RowsPerChunk = 12 // x10 inside the driver = 120 rows/chunk
	st, err := RunFineRefreshStudy(t.Context(), o, "B6")
	if err != nil {
		t.Fatal(err)
	}
	if st.WeakRows == 0 {
		t.Fatal("no weak rows found on B6")
	}
	if !st.Verified {
		t.Error("fine plan left retention flips")
	}
	if st.FineCost >= st.BlanketCost {
		t.Errorf("fine cost %.4f not below blanket cost %.4f", st.FineCost, st.BlanketCost)
	}
	if st.FineCost <= 1 {
		t.Errorf("fine cost %.4f should exceed the nominal baseline", st.FineCost)
	}
	var buf bytes.Buffer
	if err := st.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}

func TestPowerStudy(t *testing.T) {
	o := testOptions()
	ps, err := RunPowerStudy(t.Context(), o, "B3")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.VPP) < 2 {
		t.Fatalf("levels = %d", len(ps.VPP))
	}
	last := len(ps.VPP) - 1
	if ps.Power[last] >= ps.Power[0] {
		t.Errorf("rail power did not drop with VPP: %.2f -> %.2f", ps.Power[0], ps.Power[last])
	}
	// Security side: with only four sampled victims the module minimum may
	// quantize flat, but it must not collapse.
	if ps.HCFirst[last] < ps.HCFirst[0]*0.85 {
		t.Errorf("B3 HCfirst collapsed at reduced VPP: %.0f -> %.0f", ps.HCFirst[0], ps.HCFirst[last])
	}
	var buf bytes.Buffer
	if err := ps.Render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
}
