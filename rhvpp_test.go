package rhvpp

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func quickLab(t *testing.T, name string) *Lab {
	t.Helper()
	prof, ok := ModuleByName(name)
	if !ok {
		t.Fatalf("no module %s", name)
	}
	return NewLab(prof,
		WithSeed(7),
		WithGeometry(Geometry{Banks: 1, RowsPerBank: 4096, RowBytes: 512, SubarrayRows: 512}),
		WithConfig(QuickConfig()),
	)
}

func TestModulesCatalog(t *testing.T) {
	ms := Modules()
	if len(ms) != 30 {
		t.Fatalf("modules = %d", len(ms))
	}
	if _, ok := ModuleByName("B3"); !ok {
		t.Error("B3 missing")
	}
	if _, ok := ModuleByName("nope"); ok {
		t.Error("bogus module found")
	}
}

func TestLabVoltageControl(t *testing.T) {
	lab := quickLab(t, "B3")
	if lab.VPP() != VPPNominal {
		t.Errorf("initial VPP = %v", lab.VPP())
	}
	if err := lab.SetVPP(1.8); err != nil {
		t.Fatal(err)
	}
	if lab.VPP() != 1.8 {
		t.Errorf("VPP after set = %v", lab.VPP())
	}
	min, err := lab.DiscoverVPPmin()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(min-lab.Profile().VPPMin) > 0.051 {
		t.Errorf("discovered VPPmin %v, profile says %v", min, lab.Profile().VPPMin)
	}
	if !lab.Responds() {
		t.Error("lab unresponsive after discovery")
	}
}

func TestLabCharacterizeRow(t *testing.T) {
	lab := quickLab(t, "B0")
	res, err := lab.CharacterizeRow(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.HCFirst <= 0 || res.BER <= 0 {
		t.Errorf("result = %+v", res)
	}
	ber, err := lab.MeasureBER(100, 2*res.HCFirst)
	if err != nil {
		t.Fatal(err)
	}
	if ber <= 0 {
		t.Error("no flips at 2x measured HCfirst")
	}
}

func TestLabTRCDAndRetention(t *testing.T) {
	lab := quickLab(t, "C0")
	trcd, err := lab.TRCDMin(60)
	if err != nil {
		t.Fatal(err)
	}
	if trcd <= 0 || trcd >= TRCDNominalNS {
		t.Errorf("tRCDmin = %v, want inside (0, 13.5) for a passing module", trcd)
	}
	if err := lab.SetTemperature(80); err != nil {
		t.Fatal(err)
	}
	ret, err := lab.RetentionSweep(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Points) == 0 {
		t.Error("empty retention sweep")
	}
}

func TestLabAggressorsAndRE(t *testing.T) {
	lab := quickLab(t, "C0") // direct mapping
	lo, hi, err := lab.Aggressors(100)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 99 || hi != 101 {
		t.Errorf("aggressors = %d, %d", lo, hi)
	}
	window := make([]int, 12)
	for i := range window {
		window[i] = 200 + i
	}
	if err := lab.ReverseEngineerAdjacency(window, 1_000_000); err != nil {
		t.Fatal(err)
	}
	lo, hi, err = lab.Aggressors(206)
	if err != nil {
		t.Fatal(err)
	}
	if lo+hi != 206*2 { // {205, 207} in either order
		t.Errorf("probed aggressors = %d, %d", lo, hi)
	}
}

func TestLabRecommendVPP(t *testing.T) {
	lab := quickLab(t, "B3")
	rec, err := lab.RecommendVPP([]int{100, 150, 200})
	if err != nil {
		t.Fatal(err)
	}
	// B3's HCfirst rises monotonically toward VPPmin; the policy should
	// recommend a reduced voltage.
	if rec >= VPPNominal {
		t.Errorf("recommended VPP = %v, want < nominal for B3", rec)
	}
}

func TestExperimentNamesComplete(t *testing.T) {
	names := ExperimentNames()
	want := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b", "fig11",
		"cv", "summary", "guardband",
		"abl-attacks", "abl-wcdp", "abl-trr", "abl-defense", "abl-secded",
		"ext-temp", "ext-attacks", "ext-retfine", "ext-power"}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %q missing", w)
		}
	}
	if len(names) != len(want) {
		t.Errorf("experiment count = %d, want %d", len(names), len(want))
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	c, err := NewCampaign(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Run(t.Context(), "nope", NewTextEncoder(&buf)); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	// Light experiments run end to end through the public API.
	o := DefaultOptions()
	o.ModuleNames = []string{"B3"}
	o.RowsPerChunk = 3
	o.Chunks = 2
	o.VPPStride = 4
	o.SpiceMCRuns = 20
	o.Geometry = Geometry{Banks: 1, RowsPerBank: 4096, RowBytes: 512, SubarrayRows: 512}
	cfg := QuickConfig()
	cfg.MinHCStep = 4000
	o.Config = cfg

	c, err := NewCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1", "table2", "table3", "fig5", "fig8b"} {
		var buf bytes.Buffer
		if err := c.Run(t.Context(), name, NewTextEncoder(&buf)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

func TestRunExperimentTable1Content(t *testing.T) {
	c, err := NewCampaign(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Run(t.Context(), "table1", NewTextEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "272") {
		t.Error("table1 missing chip count")
	}
}
