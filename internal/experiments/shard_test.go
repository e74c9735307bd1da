package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dramstudy/rhvpp/internal/report"
	"github.com/dramstudy/rhvpp/internal/stats"
)

// shardOptions is a small campaign exercising every unit type quickly.
func shardOptions() Options {
	o := testOptions("B3", "C0")
	o.SpiceMCRuns = 12
	return o
}

func TestPlanStudyDeterministicCatalogOrder(t *testing.T) {
	o := shardOptions()
	for _, study := range ShardableStudies() {
		units, err := PlanStudy(o, study)
		if err != nil {
			t.Fatalf("%s: %v", study, err)
		}
		if len(units) == 0 {
			t.Fatalf("%s: empty plan", study)
		}
		for i, u := range units {
			if u.Index != i || u.Study != study || u.Key == "" {
				t.Errorf("%s unit %d malformed: %+v", study, i, u)
			}
		}
		again, _ := PlanStudy(o, study)
		if !reflect.DeepEqual(units, again) {
			t.Errorf("%s plan is not deterministic", study)
		}
	}
	// Module studies plan the selected modules in catalog order.
	units, _ := PlanStudy(o, StudyNameRowHammer)
	if len(units) != 2 || units[0].Key != "B3" || units[1].Key != "C0" {
		t.Errorf("rowhammer plan = %+v, want [B3 C0]", units)
	}
	// The MC study plans one unit per sweep level.
	units, _ = PlanStudy(o, StudyNameSpiceMC)
	if len(units) != len(spiceSweepVPPs) || units[0].Key != "2.5" {
		t.Errorf("spice-mc plan = %+v", units)
	}
	if _, err := PlanStudy(o, StudyNameWaveforms); err == nil {
		t.Error("waveforms must not be shardable")
	}
	if _, err := PlanStudy(o, "nope"); err == nil {
		t.Error("unknown study accepted")
	}
}

func TestRunUnitsRejectsForeignUnits(t *testing.T) {
	o := shardOptions()
	ctx := t.Context()
	if _, err := RunUnits(ctx, o, StudyNameCV, []UnitRef{{Study: StudyNameCV, Key: "A9", Index: 0}}, nil); err == nil {
		t.Error("unit outside the module selection accepted")
	}
	if _, err := RunUnits(ctx, o, StudyNameCV, []UnitRef{{Study: StudyNameTRCD, Key: "B3", Index: 0}}, nil); err == nil {
		t.Error("unit of a different study accepted")
	}
	if _, err := RunUnits(ctx, o, StudyNameCV, []UnitRef{{Study: StudyNameCV, Key: "B3", Index: 5}}, nil); err == nil {
		t.Error("unit with wrong index accepted")
	}
}

// runStudyViaUnits executes the study's full plan through the serialized
// unit path — optionally split into k alternating "shards" run separately —
// and assembles the result, i.e. exactly what a sharded campaign does.
func runStudyViaUnits(t *testing.T, o Options, study string, k int) map[string]json.RawMessage {
	t.Helper()
	plan, err := PlanStudy(o, study)
	if err != nil {
		t.Fatal(err)
	}
	data := make(map[string]json.RawMessage, len(plan))
	for shard := 0; shard < k; shard++ {
		var units []UnitRef
		for i, u := range plan {
			if i%k == shard {
				units = append(units, u)
			}
		}
		payloads, err := RunUnits(t.Context(), o, study, units, nil)
		if err != nil {
			t.Fatalf("%s shard %d/%d: %v", study, shard, k, err)
		}
		for i, raw := range payloads {
			data[units[i].Key] = raw
		}
	}
	return data
}

// renderStudy renders a study's experiments into one text buffer, the
// byte-level contract the equivalence tests compare on.
func renderStudy(t *testing.T, render func(enc report.Encoder) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestUnitPathMatchesDirectDrivers is the sharding acceptance property at
// the experiments layer: for every shardable study, running the plan's units
// through serialize->assemble (split 1-way and 2-way) reproduces the direct
// in-process driver's result exactly. Every study in ShardableStudies must
// have a check here, so a new study cannot join the shard protocol without
// the plan -> run -> assemble equivalence being exercised.
func TestUnitPathMatchesDirectDrivers(t *testing.T) {
	o := shardOptions()
	ctx := t.Context()

	checks := map[string]func(t *testing.T){
		StudyNameRowHammer: func(t *testing.T) {
			direct, err := RunRowHammerStudy(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 2; k++ {
				st, err := AssembleRowHammerStudy(o, runStudyViaUnits(t, o, StudyNameRowHammer, k))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st, direct) {
					t.Errorf("k=%d: assembled RowHammer study differs from direct driver", k)
				}
				want := renderStudy(t, func(enc report.Encoder) error { return enc.Table(direct.Table3()) })
				got := renderStudy(t, func(enc report.Encoder) error { return enc.Table(st.Table3()) })
				if got != want {
					t.Errorf("k=%d: Table 3 bytes diverge", k)
				}
			}
		},

		StudyNameTRCD: func(t *testing.T) {
			direct, err := RunTRCDStudy(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 2; k++ {
				st, err := AssembleTRCDStudy(o, runStudyViaUnits(t, o, StudyNameTRCD, k))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st, direct) {
					t.Errorf("k=%d: assembled tRCD study differs from direct driver", k)
				}
			}
		},

		StudyNameRetention: func(t *testing.T) {
			direct, err := RunRetentionStudy(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 2; k++ {
				st, err := AssembleRetentionStudy(o, runStudyViaUnits(t, o, StudyNameRetention, k))
				if err != nil {
					t.Fatal(err)
				}
				want := renderStudy(t, direct.RenderFig10b)
				got := renderStudy(t, st.RenderFig10b)
				if got != want {
					t.Errorf("k=%d: Fig. 10b bytes diverge:\n--- direct ---\n%s\n--- units ---\n%s", k, want, got)
				}
				if !reflect.DeepEqual(st.MeanBER, direct.MeanBER) {
					t.Errorf("k=%d: MeanBER grids diverge", k)
				}
			}
		},

		StudyNameWordAnalysis: func(t *testing.T) {
			direct, err := RunWordAnalysis(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 2; k++ {
				st, err := AssembleWordAnalysis(o, runStudyViaUnits(t, o, StudyNameWordAnalysis, k))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st, direct) {
					t.Errorf("k=%d: assembled word analysis differs from direct driver", k)
				}
			}
		},

		StudyNameCV: func(t *testing.T) {
			direct, err := RunCVStudy(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 2; k++ {
				st, err := AssembleCVStudy(o, runStudyViaUnits(t, o, StudyNameCV, k))
				if err != nil {
					t.Fatal(err)
				}
				if st.P90 != direct.P90 || st.P95 != direct.P95 || st.P99 != direct.P99 || st.CVs.N() != direct.CVs.N() {
					t.Errorf("k=%d: assembled CV study differs: %+v vs %+v", k, st, direct)
				}
			}
		},

		StudyNameSpiceMC: func(t *testing.T) {
			direct, err := RunMCStudy(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			// k=2 splits the levels across two separate sweeps: per-level results
			// must match the all-levels-in-one-queue run exactly.
			for k := 1; k <= 2; k++ {
				st, err := AssembleMCStudy(o, runStudyViaUnits(t, o, StudyNameSpiceMC, k))
				if err != nil {
					t.Fatal(err)
				}
				want := renderStudy(t, direct.RenderFig8b) + renderStudy(t, direct.RenderFig9b)
				got := renderStudy(t, st.RenderFig8b) + renderStudy(t, st.RenderFig9b)
				if got != want {
					t.Errorf("k=%d: Fig. 8b/9b bytes diverge:\n--- direct ---\n%s\n--- units ---\n%s", k, want, got)
				}
			}
		},
	}

	covered := 0
	for _, name := range ShardableStudies() {
		if checks[name] == nil {
			t.Errorf("shardable study %q has no unit-path equivalence check", name)
		} else {
			covered++
		}
	}
	if covered != len(checks) {
		t.Errorf("%d equivalence checks name studies missing from ShardableStudies", len(checks)-covered)
	}
	if testing.Short() {
		t.Skip("full study equivalence sweep in -short mode")
	}
	for _, name := range ShardableStudies() {
		if check := checks[name]; check != nil {
			t.Run(name, check)
		}
	}
}

// TestAssembleRejectsIncompleteOrForeignData: missing or surplus units fail
// loudly with the unit named.
func TestAssembleRejectsIncompleteOrForeignData(t *testing.T) {
	o := shardOptions()
	if _, err := AssembleCVStudy(o, map[string]json.RawMessage{}); err == nil {
		t.Error("empty data assembled")
	} else if !strings.Contains(err.Error(), "B3") {
		t.Errorf("error should name the missing unit: %v", err)
	}
	var d stats.Dist
	raw, _ := json.Marshal(d) //detlint:ignore sinkerr marshal of a zero-value fixture cannot fail
	data := map[string]json.RawMessage{"B3": raw, "C0": raw, "A9": raw}
	if _, err := AssembleCVStudy(o, data); err == nil {
		t.Error("surplus unit assembled")
	}
	bad := map[string]json.RawMessage{"B3": json.RawMessage(`{"moments":`), "C0": raw}
	if _, err := AssembleCVStudy(o, bad); err == nil {
		t.Error("corrupt payload assembled")
	}
	// Wire partials naming modules outside the catalog are rejected.
	w, _ := json.Marshal(moduleSweepWire{Module: "ZZ"}) //detlint:ignore sinkerr marshal of a literal fixture cannot fail
	rhData := map[string]json.RawMessage{"B3": w, "C0": w}
	if _, err := AssembleRowHammerStudy(o, rhData); err == nil {
		t.Error("unknown module in sweep partial accepted")
	}
}

func TestValidateRejectsNegativeJobs(t *testing.T) {
	o := shardOptions()
	o.Jobs = -1
	err := o.Validate()
	if err == nil {
		t.Fatal("negative Jobs accepted")
	}
	if !strings.Contains(err.Error(), "-1") {
		t.Errorf("error should name the offending value: %v", err)
	}
	o.Jobs = 0
	if err := o.Validate(); err != nil {
		t.Errorf("Jobs=0 rejected: %v", err)
	}
}

// TestMCLevelKeysUnique guards the unit-key encoding: every sweep level must
// format to a distinct key, or artifact units would collide.
func TestMCLevelKeysUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, vpp := range spiceSweepVPPs {
		k := mcLevelKey(vpp)
		if seen[k] {
			t.Fatalf("duplicate MC level key %q", k)
		}
		seen[k] = true
	}
	if !seen[fmt.Sprintf("%.1f", 2.5)] {
		t.Error("nominal level missing")
	}
}

// TestAssembleRetentionRejectsMalformedGrid: a corrupt artifact whose window
// dimension disagrees with the campaign grid must error, not panic.
func TestAssembleRetentionRejectsMalformedGrid(t *testing.T) {
	o := shardOptions()
	vpps, windows, _ := retentionGrid(o)
	mk := func(winCols int) json.RawMessage {
		m := ModuleRetention{Module: "B3", Sum: make([][]float64, len(vpps)),
			Count: make([][]int, len(vpps)), Rows: make([]stats.Moments, len(vpps))}
		for i := range m.Sum {
			m.Sum[i] = make([]float64, winCols)
			m.Count[i] = make([]int, winCols)
		}
		raw, _ := json.Marshal(m) //detlint:ignore sinkerr marshal of an all-numeric fixture cannot fail
		return raw
	}
	good := mk(len(windows))
	data := map[string]json.RawMessage{"B3": mk(len(windows) + 2), "C0": good}
	if _, err := AssembleRetentionStudy(o, data); err == nil {
		t.Error("extra window column accepted")
	} else if !strings.Contains(err.Error(), "window") {
		t.Errorf("error should name the window mismatch: %v", err)
	}
	if _, err := AssembleRetentionStudy(o, map[string]json.RawMessage{"B3": good, "C0": good}); err != nil {
		t.Errorf("well-formed partials rejected: %v", err)
	}
}
