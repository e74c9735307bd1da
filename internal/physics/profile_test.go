package physics

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestProfilesCount(t *testing.T) {
	ps := Profiles()
	if len(ps) != 30 {
		t.Fatalf("got %d profiles, want 30 (Table 3)", len(ps))
	}
	counts := map[Manufacturer]int{}
	for _, p := range ps {
		counts[p.Mfr]++
	}
	for _, m := range []Manufacturer{MfrA, MfrB, MfrC} {
		if counts[m] != 10 {
			t.Errorf("Mfr %v has %d modules, want 10", m, counts[m])
		}
	}
}

func TestTotalChips272(t *testing.T) {
	if got := TotalChips(); got != 272 {
		t.Errorf("TotalChips = %d, want 272 (paper abstract)", got)
	}
}

func TestChipsPerDIMM(t *testing.T) {
	if OrgX4.ChipsPerDIMM() != 16 {
		t.Error("x4 DIMM should have 16 chips")
	}
	if OrgX8.ChipsPerDIMM() != 8 {
		t.Error("x8 DIMM should have 8 chips")
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("B3")
	if !ok {
		t.Fatal("B3 not found")
	}
	if p.Nominal.HCFirst != 16_600 || p.VPPMin != 1.6 {
		t.Errorf("B3 = %+v", p)
	}
	if _, ok := ProfileByName("Z9"); ok {
		t.Error("nonexistent module found")
	}
}

func TestProfilesReturnsCopy(t *testing.T) {
	a := Profiles()
	a[0].Name = "mutated"
	if b := Profiles(); b[0].Name == "mutated" {
		t.Error("Profiles() exposes internal slice")
	}
}

func TestProfilesByMfr(t *testing.T) {
	bs := ProfilesByMfr(MfrB)
	if len(bs) != 10 {
		t.Fatalf("got %d B modules", len(bs))
	}
	for _, p := range bs {
		if p.Mfr != MfrB {
			t.Errorf("module %s has Mfr %v", p.Name, p.Mfr)
		}
	}
}

func TestTRCDFailingModules(t *testing.T) {
	want := map[string]float64{"A0": 24, "A1": 24, "A2": 24, "B2": 15, "B5": 15}
	failChips := 0
	for _, p := range Profiles() {
		if fix, ok := want[p.Name]; ok {
			if !p.TRCDFailsNominal || p.TRCDFixNS != fix {
				t.Errorf("%s: TRCDFailsNominal=%v fix=%v, want true/%v",
					p.Name, p.TRCDFailsNominal, p.TRCDFixNS, fix)
			}
			failChips += p.Chips()
		} else if p.TRCDFailsNominal {
			t.Errorf("%s unexpectedly marked TRCD-failing", p.Name)
		}
	}
	// Paper: 64 chips fail nominal tRCD (208 of 272 pass).
	if failChips != 64 {
		t.Errorf("failing chips = %d, want 64", failChips)
	}
}

func TestRetentionFailingModules(t *testing.T) {
	want := map[string]bool{"B6": true, "B8": true, "B9": true,
		"C1": true, "C3": true, "C5": true, "C9": true}
	n := 0
	for _, p := range Profiles() {
		if p.RetentionFails64ms {
			n++
			if !want[p.Name] {
				t.Errorf("%s unexpectedly marked retention-failing", p.Name)
			}
		} else if want[p.Name] {
			t.Errorf("%s should be retention-failing", p.Name)
		}
	}
	if n != 7 {
		t.Errorf("retention-failing modules = %d, want 7 (23 of 30 pass)", n)
	}
}

func TestVPPLevels(t *testing.T) {
	p, _ := ProfileByName("B3") // VPPmin 1.6
	levels := p.VPPLevels()
	if len(levels) != 10 {
		t.Fatalf("B3 levels = %v, want 10 entries 2.5..1.6", levels)
	}
	if levels[0] != 2.5 || levels[len(levels)-1] != 1.6 {
		t.Errorf("levels endpoints = %v, %v", levels[0], levels[len(levels)-1])
	}
	for i := 1; i < len(levels); i++ {
		if d := levels[i-1] - levels[i]; math.Abs(d-0.1) > 1e-9 {
			t.Errorf("step %d = %v, want 0.1", i, d)
		}
	}
}

func TestVPPRecWithinSweep(t *testing.T) {
	for _, p := range Profiles() {
		if p.VPPRec < p.VPPMin-1e-9 || p.VPPRec > VPPNominal+1e-9 {
			t.Errorf("%s: VPPRec %v outside [%v, 2.5]", p.Name, p.VPPRec, p.VPPMin)
		}
		if p.VPPMin < 1.4-1e-9 || p.VPPMin > 2.4+1e-9 {
			t.Errorf("%s: VPPmin %v outside the observed 1.4..2.4 range", p.Name, p.VPPMin)
		}
	}
}

func TestAggregateHCFirstIncrease(t *testing.T) {
	// The module-level mean HCfirst change at VPPmin should be within a few
	// points of the paper's +7.4% average (module-level means differ
	// slightly from the row-level mean the paper reports).
	var sum float64
	maxRatio := 0.0
	for _, p := range Profiles() {
		r := p.AtVPPMin.HCFirst / p.Nominal.HCFirst
		sum += r
		if r > maxRatio {
			maxRatio = r
		}
	}
	mean := sum / 30
	if mean < 1.0 || mean > 1.12 {
		t.Errorf("mean HCfirst ratio = %v, expected ~1.04-1.07", mean)
	}
	// C5 has the largest module-level ratio (12.7/9.4); the paper's 85.8%
	// maximum (B3) is a row-level figure that exceeds every module-level one.
	if math.Abs(maxRatio-12.7/9.4) > 1e-9 {
		t.Errorf("max module HCfirst ratio = %v, want %v (C5)", maxRatio, 12.7/9.4)
	}
}

func TestAggregateBERReduction(t *testing.T) {
	minRatio := math.Inf(1)
	minName := ""
	for _, p := range Profiles() {
		r := p.AtVPPMin.BER / p.Nominal.BER
		if r < minRatio {
			minRatio, minName = r, p.Name
		}
	}
	if minName != "B3" {
		t.Errorf("largest BER reduction at %s, want B3", minName)
	}
	if math.Abs(minRatio-1.09e-3/2.73e-3) > 1e-9 {
		t.Errorf("B3 BER ratio = %v, want %v", minRatio, 1.09e-3/2.73e-3)
	}
}

func TestManufacturerStrings(t *testing.T) {
	if MfrA.String() != "A" || MfrB.String() != "B" || MfrC.String() != "C" {
		t.Error("manufacturer short names wrong")
	}
	if MfrA.FullName() != "Micron" || MfrB.FullName() != "Samsung" || MfrC.FullName() != "SK Hynix" {
		t.Error("manufacturer full names wrong")
	}
	if Manufacturer(0).String() != "?" {
		t.Error("zero manufacturer should stringify as ?")
	}
}

func TestOrgString(t *testing.T) {
	if OrgX4.String() != "x4" || OrgX8.String() != "x8" || ChipOrg(0).String() != "x?" {
		t.Error("ChipOrg String() wrong")
	}
}

// TestProfileJSONIsItsLabel: a profile encodes as its Table 3 label and
// decodes back to the same catalog entry; a label the catalog does not hold,
// or a non-string, fails to decode.
func TestProfileJSONIsItsLabel(t *testing.T) {
	for _, p := range Profiles() {
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + p.Name + `"`; string(raw) != want {
			t.Errorf("%s encodes as %s, want %s", p.Name, raw, want)
		}
		var back ModuleProfile
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Errorf("%s decodes to %+v", p.Name, back)
		}
	}
	var p ModuleProfile
	if err := json.Unmarshal([]byte(`"ZZ"`), &p); err == nil || !strings.Contains(err.Error(), `"ZZ"`) {
		t.Errorf("unknown label: err = %v, want one naming ZZ", err)
	}
	if err := json.Unmarshal([]byte(`3`), &p); err == nil {
		t.Error("a number decoded as a profile")
	}
}
