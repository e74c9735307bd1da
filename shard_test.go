package rhvpp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
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
	// A complete shard set missing one unit fails naming that unit.
	short := *a0
	short.Units = a0.Units[1:]
	missing := a0.Units[0].Key
	if _, err := MergeArtifacts(&short, a1); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("shard set missing unit %s: err = %v, want an error naming it", missing, err)
	}
}

// TestMergeArtifactsReportsFirstBrokenStudy: a shard set broken in two
// studies reports the error of the first one in ShardableStudies order on
// every merge, not whichever study a map walk happens to reach first.
func TestMergeArtifactsReportsFirstBrokenStudy(t *testing.T) {
	o := shardTestOptions()
	art, err := RunShard(t.Context(), o, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	units, err := PlanUnits(o, StudyTRCD, StudyRowHammer)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if err := art.Add(u.Study, u.Key, u.Index, map[string]string{"module": "ZZ"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		_, err := MergeArtifacts(art)
		if err == nil || !strings.Contains(err.Error(), "sweep partial names unknown module") {
			t.Fatalf("merge %d: err = %v, want the RowHammer study's unknown-module error", i, err)
		}
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

// optionsV1 mirrors Options as of the v1 fingerprint freeze, before any
// omitempty field existed; its fields are the frozen v1 list. If
// canonicalOptions ever stops encoding byte-identically to this shape at
// default knob values, artifacts from older campaign runs stop merging and
// their store entries stop being found.
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

// encodeV1 returns o's canonical options as a binary predating every
// post-v1 option encoded them.
func encodeV1(t *testing.T, o Options) []byte {
	t.Helper()
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
	return old
}

// TestCanonicalOptionsContract pins the fingerprint's completeness over
// the real types. Every Options field is exported (an unexported knob
// would never reach the encoding); the optionsV1 fields keep their v1 tags
// and every later field carries json:",omitempty", so artifacts encoded
// before it existed keep their bytes; and canonicalOptions changes Jobs and
// nothing else, so no measurement knob is excluded from the fingerprint.
func TestCanonicalOptionsContract(t *testing.T) {
	rt := reflect.TypeFor[Options]()
	v1 := reflect.TypeFor[optionsV1]()
	for i := range rt.NumField() {
		f := rt.Field(i)
		if !f.IsExported() {
			t.Errorf("Options.%s is unexported, so the fingerprint never sees it", f.Name)
			continue
		}
		tag := f.Tag.Get("json")
		if old, ok := v1.FieldByName(f.Name); ok {
			if want := old.Tag.Get("json"); tag != want {
				t.Errorf("v1 field Options.%s has json tag %q, want %q: old artifacts would change bytes", f.Name, tag, want)
			}
		} else if tag != ",omitempty" {
			t.Errorf(`post-v1 field Options.%s has json tag %q, want ",omitempty": old artifacts would change bytes`, f.Name, tag)
		}
	}
	for i := range v1.NumField() {
		if _, ok := rt.FieldByName(v1.Field(i).Name); !ok {
			t.Errorf("v1 field %s is gone from Options", v1.Field(i).Name)
		}
	}

	var o Options
	next := 0
	fillLeaves(t, reflect.ValueOf(&o).Elem(), &next)
	if o.Jobs == 0 {
		t.Fatal("fill left Jobs zero")
	}
	raw, err := canonicalOptions(o)
	if err != nil {
		t.Fatal(err)
	}
	var got Options
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := o
	want.Jobs = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("canonicalOptions must change Jobs and nothing else:\n got %+v\nwant %+v", got, want)
	}
}

// fillLeaves sets every leaf under v to a distinct non-zero value, with
// two elements per slice, so a canonicalizer that drops any field shows.
func fillLeaves(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillLeaves(t, v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range v.Len() {
			fillLeaves(t, v.Index(i), next)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillLeaves: no distinct value for a %s leaf; extend it", v.Type())
	}
}

// TestShardArtifactsMergeAcrossOptionsGrowth pins the omitempty contract
// behind the v1 freeze: an artifact encoded by a binary predating any
// post-v1 option must still merge with one encoded today, because such
// fields vanish from the canonical encoding at their zero values. An
// artifact set measured under a retired measurement option (the SPICE
// step-doubling tolerance) must refuse to merge: its results do not belong
// to the options that remain.
func TestShardArtifactsMergeAcrossOptionsGrowth(t *testing.T) {
	o := shardTestOptions()
	now, err := canonicalOptions(o)
	if err != nil {
		t.Fatal(err)
	}
	old := encodeV1(t, o)
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
