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
// unit path — split into k alternating "shards" run as separate RunUnits
// calls, each partial encoded as a shard artifact carries it — and returns
// the payloads keyed by unit, exactly what a sharded campaign hands to
// assembly.
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
		parts, err := RunUnits(t.Context(), o, study, units, nil)
		if err != nil {
			t.Fatalf("%s shard %d/%d: %v", study, shard, k, err)
		}
		for i, p := range parts {
			raw, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			data[units[i].Key] = raw
		}
	}
	return data
}

// runStudy runs the study's whole plan through RunUnits in one call and
// assembles it, as an in-process campaign does.
func runStudy[T any](t *testing.T, o Options, study string,
	assemble func(Options, map[string]json.RawMessage) (T, error)) T {
	t.Helper()
	st, err := assemble(o, runStudyViaUnits(t, o, study, 1))
	if err != nil {
		t.Fatal(err)
	}
	return st
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

// splitCheck assembles one study from unit payloads and renders every
// experiment drawn from it.
type splitCheck func(t *testing.T, o Options, data map[string]json.RawMessage) (study any, text string)

func newSplitCheck[T any](assemble func(Options, map[string]json.RawMessage) (T, error),
	renders ...func(T, report.Encoder) error) splitCheck {
	return func(t *testing.T, o Options, data map[string]json.RawMessage) (any, string) {
		t.Helper()
		st, err := assemble(o, data)
		if err != nil {
			t.Fatal(err)
		}
		text := renderStudy(t, func(enc report.Encoder) error {
			for _, render := range renders {
				if err := render(st, enc); err != nil {
					return err
				}
			}
			return nil
		})
		return st, text
	}
}

// TestUnitPathIndependentOfSplit is the sharding acceptance property at the
// experiments layer: for every shardable study, the plan's units run
// through serialize->assemble in one RunUnits call, or split 2- or 3-way
// across separate calls, assemble to deeply equal studies that render
// identical bytes. Every study in ShardableStudies must have a check here,
// so a new study cannot join the shard protocol without it.
func TestUnitPathIndependentOfSplit(t *testing.T) {
	o := shardOptions()
	checks := map[string]splitCheck{
		StudyNameRowHammer: newSplitCheck(RowHammerFold.Assemble,
			RowHammerStudy.RenderFig3, RowHammerStudy.RenderFig4,
			RowHammerStudy.RenderFig5, RowHammerStudy.RenderFig6,
			func(st RowHammerStudy, enc report.Encoder) error { return enc.Table(st.Table3()) },
			func(st RowHammerStudy, enc report.Encoder) error { return st.Section5Aggregates().Render(enc) }),
		StudyNameTRCD: newSplitCheck(TRCDFold.Assemble, TRCDStudy.RenderFig7,
			func(st TRCDStudy, enc report.Encoder) error { return st.Summary().Render(enc) }),
		StudyNameRetention:    newSplitCheck(RetentionFold.Assemble, RetentionStudy.RenderFig10a, RetentionStudy.RenderFig10b),
		StudyNameWordAnalysis: newSplitCheck(WordAnalysisFold.Assemble, WordAnalysis.RenderFig11),
		StudyNameCV:           newSplitCheck(CVFold.Assemble, CVStudy.Render),
		// Split MC levels run as separate sweeps: per-level results must
		// match the all-levels-in-one-queue run exactly.
		StudyNameSpiceMC: newSplitCheck(MCFold.Assemble, MCStudy.RenderFig8b, MCStudy.RenderFig9b),
	}

	covered := 0
	for _, name := range ShardableStudies() {
		if checks[name] == nil {
			t.Errorf("shardable study %q has no split-independence check", name)
		} else {
			covered++
		}
	}
	if covered != len(checks) {
		t.Errorf("%d split checks name studies missing from ShardableStudies", len(checks)-covered)
	}
	if testing.Short() {
		t.Skip("full split-independence sweep in -short mode")
	}
	for _, name := range ShardableStudies() {
		check := checks[name]
		if check == nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			whole, wholeText := check(t, o, runStudyViaUnits(t, o, name, 1))
			for k := 2; k <= 3; k++ {
				st, text := check(t, o, runStudyViaUnits(t, o, name, k))
				if !reflect.DeepEqual(st, whole) {
					t.Errorf("k=%d: assembled study differs from the 1-way run", k)
				}
				if text != wholeText {
					t.Errorf("k=%d: rendered bytes diverge:\n--- 1-way ---\n%s\n--- %d-way ---\n%s", k, wholeText, k, text)
				}
			}
		})
	}
}

// TestAssembleRejectsIncompleteOrForeignData: missing or surplus units fail
// loudly with the unit named.
func TestAssembleRejectsIncompleteOrForeignData(t *testing.T) {
	o := shardOptions()
	if _, err := CVFold.Assemble(o, map[string]json.RawMessage{}); err == nil {
		t.Error("empty data assembled")
	} else if !strings.Contains(err.Error(), "B3") {
		t.Errorf("error should name the missing unit: %v", err)
	}
	var d stats.Dist
	raw, _ := json.Marshal(d) //detlint:ignore sinkerr marshal of a zero-value fixture cannot fail
	data := map[string]json.RawMessage{"B3": raw, "C0": raw, "A9": raw}
	if _, err := CVFold.Assemble(o, data); err == nil {
		t.Error("surplus unit assembled")
	}
	bad := map[string]json.RawMessage{"B3": json.RawMessage(`{"moments":`), "C0": raw}
	if _, err := CVFold.Assemble(o, bad); err == nil {
		t.Error("corrupt payload assembled")
	}
	// In-process partials must cover the plan with the study's type.
	if _, err := CVFold.Fold(o, []any{d}); err == nil {
		t.Error("partials short of the plan folded")
	}
	if _, err := CVFold.Fold(o, []any{d, ModuleWords{}}); err == nil {
		t.Error("another study's partial folded")
	}
	// Sweep partials naming modules outside the catalog are rejected.
	w := json.RawMessage(`{"module":"ZZ"}`)
	swData := map[string]json.RawMessage{"B3": w, "C0": w}
	if _, err := RowHammerFold.Assemble(o, swData); err == nil || !strings.Contains(err.Error(), `"ZZ"`) {
		t.Errorf("unknown module in RowHammer partial: err = %v, want one naming ZZ", err)
	}
	if _, err := TRCDFold.Assemble(o, swData); err == nil || !strings.Contains(err.Error(), `"ZZ"`) {
		t.Errorf("unknown module in tRCD partial: err = %v, want one naming ZZ", err)
	}
	// A sweep partial must carry the label of the unit it fills: none, or
	// another planned module's, is rejected.
	for _, w := range []json.RawMessage{json.RawMessage(`{}`), json.RawMessage(`{"module":"C0"}`)} {
		swData := map[string]json.RawMessage{"B3": w, "C0": json.RawMessage(`{"module":"C0"}`)}
		if _, err := RowHammerFold.Assemble(o, swData); err == nil || !strings.Contains(err.Error(), `unit "B3"`) {
			t.Errorf("RowHammer unit B3 given %s: err = %v, want one naming the unit", w, err)
		}
		if _, err := TRCDFold.Assemble(o, swData); err == nil || !strings.Contains(err.Error(), `unit "B3"`) {
			t.Errorf("tRCD unit B3 given %s: err = %v, want one naming the unit", w, err)
		}
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
	if _, err := RetentionFold.Assemble(o, data); err == nil {
		t.Error("extra window column accepted")
	} else if !strings.Contains(err.Error(), "window") {
		t.Errorf("error should name the window mismatch: %v", err)
	}
	if _, err := RetentionFold.Assemble(o, map[string]json.RawMessage{"B3": good, "C0": good}); err != nil {
		t.Errorf("well-formed partials rejected: %v", err)
	}
}
