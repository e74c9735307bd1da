package spice

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"github.com/dramstudy/rhvpp/internal/stats"
)

// TestMCResultMergeMatchesWholeStream folds one stream of run outcomes into
// a single result and, separately, into two run-order partials that are then
// merged — every field must match the whole-stream result. The comparison
// walks MCResult's fields by reflection, so a field added without a merge
// comparison here fails the test instead of silently escaping the shard
// protocol.
func TestMCResultMergeMatchesWholeStream(t *testing.T) {
	outcomes := make([]ActivationResult, 0, 30)
	for i := 0; i < 30; i++ {
		out := ActivationResult{
			Reliable:  i%5 != 0,
			Restored:  i%7 != 0,
			TRCDminNS: 10 + float64(i%9)*0.25,
			TRASminNS: 30 + float64(i%6)*0.5,
		}
		outcomes = append(outcomes, out)
	}
	fold := func(res *MCResult, outs []ActivationResult) {
		for i, out := range outs {
			res.record(out, i%11 == 10)
			res.Runs++
		}
	}
	whole := MCResult{VPP: 2.0}
	fold(&whole, outcomes)

	lo, hi := MCResult{VPP: 2.0}, MCResult{VPP: 2.0}
	fold(&lo, outcomes[:13])
	// The later range must preserve its global run parity for the synthetic
	// no-converge pattern; simpler: re-fold with the original indices.
	for i := 13; i < len(outcomes); i++ {
		hi.record(outcomes[i], i%11 == 10)
		hi.Runs++
	}
	if err := lo.Merge(hi); err != nil {
		t.Fatal(err)
	}
	got, want := reflect.ValueOf(lo), reflect.ValueOf(whole)
	for i := 0; i < got.NumField(); i++ {
		field := got.Type().Field(i)
		if !field.IsExported() {
			t.Errorf("field %s is unexported, so neither the artifact encoding nor this test sees it", field.Name)
			continue
		}
		switch g := got.Field(i).Interface().(type) {
		case int, float64:
			if w := want.Field(i).Interface(); g != w {
				t.Errorf("merged %s = %v, whole-stream %v", field.Name, g, w)
			}
		case stats.Dist:
			compareMergedDist(t, field.Name, g, want.Field(i).Interface().(stats.Dist))
		default:
			t.Errorf("field %s (%T) has no merge comparison; add one here", field.Name, g)
		}
	}

	other := MCResult{VPP: 1.8}
	if err := lo.Merge(other); err == nil {
		t.Error("merging different VPP levels must error")
	}
}

// TestMCResultJSONRoundTrip: the per-level shard payload reproduces every
// aggregate after a trip through its artifact encoding.
func TestMCResultJSONRoundTrip(t *testing.T) {
	res := mcLevel(t, 2.0, MCConfig{Runs: 8, Seed: 2022, Variation: 0.05})
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got MCResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, res)
	}
}

// mcLevel runs the Monte-Carlo campaign at one VPP level, as a one-level
// sweep.
func mcLevel(t *testing.T, vpp float64, cfg MCConfig) MCResult {
	t.Helper()
	res, err := RunMonteCarloSweep(t.Context(), []float64{vpp}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// compareMergedDist checks a merged distribution against its whole-stream
// counterpart: count, mean and order statistics exactly, variance within
// 1e-12 relative. Welford's m2 may differ in the last ulp between a merge
// and a flat fold, so the whole struct is not compared bit for bit.
func compareMergedDist(t *testing.T, name string, got, want stats.Dist) {
	t.Helper()
	if got.N() != want.N() || got.Mean() != want.Mean() {
		t.Errorf("merged %s N/mean = %d/%v, whole-stream %d/%v", name, got.N(), got.Mean(), want.N(), want.Mean())
	}
	gv, wv := got.Moments.Variance(), want.Moments.Variance()
	if math.Abs(gv-wv) > 1e-12*math.Max(math.Abs(gv), math.Abs(wv)) {
		t.Errorf("merged %s variance = %v, whole-stream %v", name, gv, wv)
	}
	for _, p := range []float64{0, 5, 25, 50, 75, 90, 95, 99, 100} {
		gp, gerr := got.Percentile(p)
		wp, werr := want.Percentile(p)
		if gp != wp || (gerr == nil) != (werr == nil) {
			t.Errorf("merged %s P%v = %v (%v), whole-stream %v (%v)", name, p, gp, gerr, wp, werr)
		}
	}
}
