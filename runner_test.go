package rhvpp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/physics"
)

// shardTestOptions is a minimal campaign touching two studies' units fast.
func shardTestOptions() Options {
	o := campaignOptions("B3", "C0")
	o.SpiceMCRuns = 10
	return o
}

func TestPlanUnitsCoversEveryShardableStudyDeterministically(t *testing.T) {
	o := shardTestOptions()
	units, err := PlanUnits(o)
	if err != nil {
		t.Fatal(err)
	}
	perStudy := map[Study]int{}
	for _, u := range units {
		perStudy[Study(u.Study)]++
	}
	for _, s := range ShardableStudies() {
		if perStudy[s] == 0 {
			t.Errorf("plan has no units for study %s", s)
		}
	}
	if perStudy[StudyWaveforms] != 0 {
		t.Error("waveforms must not appear in the plan")
	}
	again, _ := PlanUnits(o)
	if len(again) != len(units) {
		t.Fatalf("plan is not deterministic: %d vs %d units", len(again), len(units))
	}
	for i := range units {
		if units[i] != again[i] {
			t.Fatalf("plan unit %d differs between calls: %+v vs %+v", i, units[i], again[i])
		}
	}
	// Scoped plans carry only the requested studies.
	rh, err := PlanUnits(o, StudyRowHammer)
	if err != nil {
		t.Fatal(err)
	}
	if len(rh) != 2 || rh[0].Key != "B3" || rh[1].Key != "C0" {
		t.Errorf("scoped plan = %+v", rh)
	}
	if _, err := PlanUnits(o, StudyRowHammer, StudyRowHammer); err == nil {
		t.Error("duplicate study accepted")
	}
	if _, err := PlanUnits(o, StudyWaveforms); err == nil {
		t.Error("non-shardable study accepted")
	}
}

func TestShardUnitsPartitionsExactly(t *testing.T) {
	o := shardTestOptions()
	units, err := PlanUnits(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 5} {
		seen := map[WorkUnit]int{}
		total := 0
		for i := 0; i < n; i++ {
			part, err := ShardUnits(units, i, n)
			if err != nil {
				t.Fatal(err)
			}
			total += len(part)
			for _, u := range part {
				seen[u]++
			}
		}
		if total != len(units) || len(seen) != len(units) {
			t.Errorf("n=%d: shards cover %d units (%d distinct), want %d", n, total, len(seen), len(units))
		}
	}
	if _, err := ShardUnits(units, 2, 2); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := ShardUnits(units, 0, 0); err == nil {
		t.Error("zero shard count accepted")
	}
}

// renderCampaign renders the given experiment ids through one campaign into
// a single buffer.
func renderCampaign(t *testing.T, c *Campaign, ids ...string) string {
	t.Helper()
	var buf bytes.Buffer
	enc := NewTextEncoder(&buf)
	for _, id := range ids {
		if err := c.Run(t.Context(), id, enc); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	return buf.String()
}

// TestShardMergeReproducesLocalCampaign is the library-level acceptance
// property: shard artifacts produced by RunShard (any way count), merged by
// MergeArtifacts, render byte-identically to a plain local campaign — and
// without re-running any study.
func TestShardMergeReproducesLocalCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-campaign equivalence in -short mode")
	}
	o := shardTestOptions()
	ids := []string{"table3", "fig5", "fig8b", "cv", "guardband", "fig10b", "fig11", "summary"}
	local, err := NewCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	want := renderCampaign(t, local, ids...)

	units, err := PlanUnits(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3} {
		arts := make([]*ShardArtifact, n)
		for i := 0; i < n; i++ {
			part, err := ShardUnits(units, i, n)
			if err != nil {
				t.Fatal(err)
			}
			if arts[i], err = RunShard(t.Context(), o, i, n, part); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := MergeArtifacts(arts...)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := renderCampaign(t, merged, ids...); got != want {
			t.Errorf("n=%d: merged rendering differs from local campaign", n)
		}
		// Every sharded study was preloaded: rendering must not have
		// executed any of them again in the merged session.
		for s, runs := range merged.StudyRuns() {
			if s != StudyWaveforms && runs != 0 {
				t.Errorf("n=%d: merged campaign re-ran study %s %d time(s)", n, s, runs)
			}
		}
	}
}

// TestShardArtifactEncodingRoundTrip: artifacts survive their file encoding,
// and the merged campaign still renders identically.
func TestShardArtifactEncodingRoundTrip(t *testing.T) {
	o := shardTestOptions()
	units, err := PlanUnits(o, StudyCV)
	if err != nil {
		t.Fatal(err)
	}
	art, err := RunShard(t.Context(), o, 0, 1, units)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := MergeArtifacts(art)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := MergeArtifacts(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderCampaign(t, c1, "cv"), renderCampaign(t, c2, "cv"); a != b {
		t.Errorf("decoded artifact renders differently:\n%s\nvs\n%s", a, b)
	}
}

func TestMergeArtifactsValidation(t *testing.T) {
	o := shardTestOptions()
	units, err := PlanUnits(o, StudyCV)
	if err != nil {
		t.Fatal(err)
	}
	half0, _ := ShardUnits(units, 0, 2)
	half1, _ := ShardUnits(units, 1, 2)
	a0, err := RunShard(t.Context(), o, 0, 2, half0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := RunShard(t.Context(), o, 1, 2, half1)
	if err != nil {
		t.Fatal(err)
	}

	// Incomplete set.
	if _, err := MergeArtifacts(a0); err == nil {
		t.Error("incomplete shard set merged")
	}
	// Duplicate shard.
	if _, err := MergeArtifacts(a0, a0); err == nil {
		t.Error("duplicate shard merged")
	}
	// Options drift: same shapes, different seed.
	o2 := shardTestOptions()
	o2.Seed = o.Seed + 1
	b1, err := RunShard(t.Context(), o2, 1, 2, half1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeArtifacts(a0, b1); err == nil {
		t.Error("mixed-options shard set merged")
	}
	// Jobs is execution-irrelevant and excluded from the fingerprint.
	o3 := shardTestOptions()
	o3.Jobs = 7
	c1, err := RunShard(t.Context(), o3, 1, 2, half1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeArtifacts(a0, c1); err != nil {
		t.Errorf("differing Jobs must merge (fingerprint excludes it): %v", err)
	}
	// The valid set merges.
	if _, err := MergeArtifacts(a1, a0); err != nil {
		t.Errorf("valid shard set rejected: %v", err)
	}
}

// staticRunner returns canned results; used to test Campaign's runner-output
// validation.
type staticRunner struct{ results []UnitResult }

func (r staticRunner) RunStudy(context.Context, Options, Study, []WorkUnit) ([]UnitResult, error) {
	return r.results, nil
}

func TestCampaignRejectsMisbehavingRunner(t *testing.T) {
	o := shardTestOptions()
	raw := json.RawMessage(`{}`)
	foreign := UnitResult{Unit: WorkUnit{Study: string(StudyTRCD), Key: "B3", Index: 0}, Data: raw}
	c, err := NewCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WithRunner(staticRunner{[]UnitResult{foreign}}).CV(t.Context()); err == nil {
		t.Error("foreign-study unit accepted")
	}
	dup := UnitResult{Unit: WorkUnit{Study: string(StudyCV), Key: "B3", Index: 0}, Data: raw}
	c2, _ := NewCampaign(o)
	if _, err := c2.WithRunner(staticRunner{[]UnitResult{dup, dup}}).CV(t.Context()); err == nil {
		t.Error("duplicate unit accepted")
	}
	// Missing units surface as an incomplete-assembly error naming the unit.
	c3, _ := NewCampaign(o)
	_, err = c3.WithRunner(staticRunner{nil}).CV(t.Context())
	if err == nil || !strings.Contains(err.Error(), "B3") {
		t.Errorf("missing units should fail naming the first missing unit, got: %v", err)
	}
}

// TestProcRunnerNeedsCommand pins the explicit-configuration contract.
func TestProcRunnerNeedsCommand(t *testing.T) {
	c, err := NewCampaign(shardTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WithRunner(ProcRunner{Shards: 2}).CV(t.Context()); err == nil {
		t.Error("ProcRunner without Command must error")
	}
}

// TestProcRunnerReportsSubprocessFailure: a failing shard subprocess surfaces
// as a genuine error (with the shard named), not a hang or a cancellation.
func TestProcRunnerReportsSubprocessFailure(t *testing.T) {
	c, err := NewCampaign(shardTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.WithRunner(ProcRunner{Command: []string{"false"}, Shards: 2}).CV(t.Context())
	if err == nil {
		t.Fatal("failing subprocess reported success")
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("subprocess failure mis-reported as cancellation: %v", err)
	}
	if !strings.Contains(err.Error(), "shard") {
		t.Errorf("error should locate the failing shard: %v", err)
	}
}

// TestRunShardHonorsCancellation: a canceled shard run returns the context
// error so callers do not write a partial artifact.
func TestRunShardHonorsCancellation(t *testing.T) {
	o := shardTestOptions()
	units, err := PlanUnits(o, StudyRowHammer)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := RunShard(ctx, o, 0, 1, units); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled RunShard returned %v, want context.Canceled", err)
	}
}

// TestShardArtifactsMergeAcrossOptionsGrowth pins the omitempty contract
// behind the //detlint:fingerprint v1 freeze: an artifact encoded by a
// binary predating any post-v1 option must still merge with one encoded
// today, because such fields vanish from the canonical encoding at their
// zero values. A shard request written by a binary that still had the
// retired batch-width execution-shape knob must decode and fingerprint as
// if the field were absent. An artifact set measured under a retired
// measurement option (the SPICE step-doubling tolerance) must refuse to
// merge: its results do not belong to the options that remain.
func TestShardArtifactsMergeAcrossOptionsGrowth(t *testing.T) {
	// optionsV1 mirrors Options as of the v1 fingerprint freeze, before
	// any omitempty field existed. If canonicalOptions ever stops encoding
	// byte-identically to this shape at default knob values, artifacts
	// from older campaign runs stop merging — that is the regression this
	// test exists to catch.
	type optionsV1 struct {
		Seed                 uint64
		Geometry             physics.Geometry
		Config               core.Config
		Chunks, RowsPerChunk int
		ModuleNames          []string
		VPPStride            int
		SpiceMCRuns          int
		RetentionVPPLevels   []float64
		Jobs                 int
	}
	o := shardTestOptions()
	now, err := canonicalOptions(o)
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(optionsV1{
		Seed:               o.Seed,
		Geometry:           o.Geometry,
		Config:             o.Config,
		Chunks:             o.Chunks,
		RowsPerChunk:       o.RowsPerChunk,
		ModuleNames:        o.ModuleNames,
		VPPStride:          o.VPPStride,
		SpiceMCRuns:        o.SpiceMCRuns,
		RetentionVPPLevels: o.RetentionVPPLevels,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now, old) {
		t.Fatalf("canonical options drifted from the v1 freeze:\n v1: %s\nnow: %s", old, now)
	}

	units, err := PlanUnits(o, StudyCV)
	if err != nil {
		t.Fatal(err)
	}
	half0, _ := ShardUnits(units, 0, 2)
	half1, _ := ShardUnits(units, 1, 2)
	a0, err := RunShard(t.Context(), o, 0, 2, half0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := RunShard(t.Context(), o, 1, 2, half1)
	if err != nil {
		t.Fatal(err)
	}
	// Rewind a1 to the pre-growth encoding, as if decoded from an artifact
	// written before the omitempty fields existed.
	a1.Options = old
	if _, err := MergeArtifacts(a0, a1); err != nil {
		t.Errorf("pre-growth artifact refused to merge with a current one: %v", err)
	}

	// A shard request from a binary that still carried the batch width: the
	// unknown field is ignored on decode and never reaches the fingerprint.
	current, err := json.Marshal(ShardRequest{Shard: 1, Of: 2, Options: o, Units: half1})
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(current, []byte(`"options":{`), []byte(`"options":{"SpiceBatchWidth":8,`), 1)
	if bytes.Equal(legacy, current) {
		t.Fatal("legacy shard request fixture did not inject the retired field")
	}
	wantFP, err := OptionsFingerprint(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{{"current", current}, {"legacy", legacy}} {
		req, err := DecodeShardRequest(bytes.NewReader(tc.raw))
		if err != nil {
			t.Fatalf("%s shard request: %v", tc.name, err)
		}
		if fp, err := OptionsFingerprint(req.Options); err != nil || fp != wantFP {
			t.Errorf("%s shard request fingerprint = %s (err %v), want %s", tc.name, fp, err, wantFP)
		}
	}

	// A shard set written with a retired, non-default tolerance: decoding
	// drops the field, so only the canonical re-encoding can refuse it.
	retired := func(a *ShardArtifact) *ShardArtifact {
		r := *a
		r.Options = bytes.Replace(a.Options, []byte(`{`), []byte(`{"SpiceLTETolV":0.0002,`), 1)
		if bytes.Equal(r.Options, a.Options) {
			t.Fatal("retired-option fixture did not inject the field")
		}
		return &r
	}
	if _, err := MergeArtifacts(retired(a0), retired(a1)); err == nil {
		t.Error("shards measured under a retired SpiceLTETolV merged under the default options")
	}
}
