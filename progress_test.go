package rhvpp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"testing"

	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/physics"
)

// collectProgress is a concurrency-safe ProgressFunc recording every event.
type collectProgress struct {
	mu     sync.Mutex
	events []ProgressEvent
}

func (c *collectProgress) fn(ev ProgressEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
}

func (c *collectProgress) snapshot() []ProgressEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ProgressEvent(nil), c.events...)
}

// TestProgressHookObservesWithoutChangingOutput drives one study with and
// without a progress hook: the rendered bytes must be identical, and the
// hook must see the study announcement plus every unit exactly once, with
// the done counter reaching the total.
func TestProgressHookObservesWithoutChangingOutput(t *testing.T) {
	o := campaignOptions("B3", "C0")
	plain, err := NewCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	var col collectProgress
	observed, err := NewCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	observed.WithProgress(col.fn)

	render := func(c *Campaign) []byte {
		var buf bytes.Buffer
		enc, err := NewEncoder(FormatJSON, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background(), "table3", enc); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render(plain)
	got := render(observed)
	if !bytes.Equal(want, got) {
		t.Error("progress hook changed the rendered bytes")
	}

	events := col.snapshot()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3 (announcement + 2 modules): %+v", len(events), events)
	}
	if events[0].Key != "" || events[0].Total != 2 || events[0].Done != 0 {
		t.Errorf("announcement event %+v", events[0])
	}
	seen := map[string]bool{}
	maxDone := 0
	for _, ev := range events[1:] {
		if ev.Study != string(StudyRowHammer) || ev.Total != 2 {
			t.Errorf("unit event %+v", ev)
		}
		seen[ev.Key] = true
		if ev.Done > maxDone {
			maxDone = ev.Done
		}
	}
	if !seen["B3"] || !seen["C0"] || maxDone != 2 {
		t.Errorf("unit events incomplete: %+v", events[1:])
	}
}

// TestOptionsFingerprintContract pins the fingerprint to the canonical
// options encoding: result-shaping knobs move it, the execution-shape knob
// Jobs does not, and its value is the SHA-256 of the same
// canonical bytes shard artifacts embed.
func TestOptionsFingerprintContract(t *testing.T) {
	o := campaignOptions("B3")
	fp, err := OptionsFingerprint(o)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := canonicalOptions(o)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if fp != hex.EncodeToString(sum[:]) {
		t.Error("fingerprint is not the SHA-256 of the canonical options")
	}

	shaped := o
	shaped.Jobs = 7
	if fp2, _ := OptionsFingerprint(shaped); fp2 != fp {
		t.Error("the execution-shape knob Jobs moved the fingerprint")
	}
	different := o
	different.Seed++
	if fp3, _ := OptionsFingerprint(different); fp3 == fp {
		t.Error("a different campaign shares the fingerprint")
	}
}

// TestCachedCampaignStoreRoundTrip computes through an artifact store and
// replays from it: the second call must decode from disk (no recomputation)
// and render byte-identically.
func TestCachedCampaignStoreRoundTrip(t *testing.T) {
	st, err := OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := campaignOptions("B3")
	c1, fromStore, err := CachedCampaign(context.Background(), o, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Fatal("empty store reported a hit")
	}
	fp, err := OptionsFingerprint(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(fp); err != nil {
		t.Fatalf("computed campaign not persisted: %v", err)
	}

	var units int
	c2, fromStore, err := CachedCampaign(context.Background(), o, st, func(WorkUnit) { units++ })
	if err != nil {
		t.Fatal(err)
	}
	if !fromStore {
		t.Error("warm store missed")
	}
	if units != 0 {
		t.Errorf("store hit still executed %d units", units)
	}
	render := func(c *Campaign) []byte {
		var buf bytes.Buffer
		enc, err := NewEncoder(FormatJSON, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background(), "table3", enc); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(c1), render(c2)) {
		t.Error("store-decoded campaign renders different bytes")
	}
}

// TestCachedCampaignHealsCorruptEntry damages a store entry and checks the
// next request treats it as a miss, recomputes, and overwrites the damage.
func TestCachedCampaignHealsCorruptEntry(t *testing.T) {
	st, err := OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := campaignOptions("B3")
	if _, _, err := CachedCampaign(context.Background(), o, st, nil); err != nil {
		t.Fatal(err)
	}
	fp, err := OptionsFingerprint(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(fp), []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(fp); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("damaged entry reads as %v, want ErrArtifactCorrupt", err)
	}
	_, fromStore, err := CachedCampaign(context.Background(), o, st, nil)
	if err != nil {
		t.Fatalf("corrupt entry wedged the fingerprint: %v", err)
	}
	if fromStore {
		t.Error("corrupt entry served as a hit")
	}
	if _, err := st.Get(fp); err != nil {
		t.Errorf("recomputation did not heal the entry: %v", err)
	}
}

// TestCachedCampaignFindsPreGrowthEntries pins the omitempty contract at the
// store: an entry written before the post-v1 options fields existed lives at
// the same fingerprint today's options produce (at default knob values), so
// it is still found and still decodes.
func TestCachedCampaignFindsPreGrowthEntries(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := campaignOptions("B3")
	if _, _, err := CachedCampaign(context.Background(), o, st, nil); err != nil {
		t.Fatal(err)
	}
	fp, err := OptionsFingerprint(o)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the stored artifact's embedded options to the pre-growth (v1)
	// encoding, as a server from before the omitempty fields would have
	// written it. optionsV1 mirrors the frozen field set — see
	// TestShardArtifactsMergeAcrossOptionsGrowth for the encoding pin.
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
	old, err := json.Marshal(optionsV1{
		Seed: o.Seed, Geometry: o.Geometry, Config: o.Config,
		Chunks: o.Chunks, RowsPerChunk: o.RowsPerChunk, ModuleNames: o.ModuleNames,
		VPPStride: o.VPPStride, SpiceMCRuns: o.SpiceMCRuns,
		RetentionVPPLevels: o.RetentionVPPLevels,
	})
	if err != nil {
		t.Fatal(err)
	}
	art, err := st.Get(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art.Options, old) {
		t.Fatalf("canonical options drifted from the v1 freeze:\n v1: %s\nnow: %s", old, art.Options)
	}
	art.Options = old
	if err := st.Put(fp, art); err != nil {
		t.Fatal(err)
	}

	// A fresh store handle (a restarted server) finds and decodes it.
	st2, err := OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var units int
	_, fromStore, err := CachedCampaign(context.Background(), o, st2, func(WorkUnit) { units++ })
	if err != nil {
		t.Fatalf("pre-growth entry does not decode: %v", err)
	}
	if !fromStore || units != 0 {
		t.Errorf("pre-growth entry missed (fromStore=%v, %d units recomputed)", fromStore, units)
	}
}

// TestCachedCampaignNilStoreComputes checks the storeless path (serve
// without -store): every call computes, none persists.
func TestCachedCampaignNilStoreComputes(t *testing.T) {
	o := campaignOptions("B3")
	var units int
	_, fromStore, err := CachedCampaign(context.Background(), o, nil, func(WorkUnit) { units++ })
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Error("nil store reported a hit")
	}
	if units == 0 {
		t.Error("no unit completions observed")
	}
}
