package rhvpp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"sync"
	"testing"
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

// TestCachedCampaignRejectsForeignEntries checks that a store entry is
// served only under the options it was measured with: an artifact of
// campaign A filed at B's fingerprint, or an entry that no longer merges,
// is a corrupt entry that B recomputes and overwrites, never A's results
// under B's key and never a wedged fingerprint.
func TestCachedCampaignRejectsForeignEntries(t *testing.T) {
	st, err := OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := campaignOptions("B3")
	b := a
	b.Seed++
	if _, _, err := CachedCampaign(t.Context(), a, st, nil); err != nil {
		t.Fatal(err)
	}
	fpA, err := OptionsFingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := OptionsFingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	artA, err := st.Get(fpA)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(fpB, artA); err != nil {
		t.Fatal(err)
	}
	wantB, err := canonicalOptions(b)
	if err != nil {
		t.Fatal(err)
	}
	// heals requires that a call under b recomputes over the planted entry
	// and that the following call is a hit on b's own options.
	heals := func(what string) {
		t.Helper()
		if _, fromStore, err := CachedCampaign(t.Context(), b, st, nil); err != nil {
			t.Fatalf("%s wedged the fingerprint: %v", what, err)
		} else if fromStore {
			t.Fatalf("%s served as a hit", what)
		}
		c, fromStore, err := CachedCampaign(t.Context(), b, st, nil)
		if err != nil || !fromStore {
			t.Fatalf("healed entry: fromStore=%v err=%v, want a hit", fromStore, err)
		}
		if c.Options().Seed != b.Seed {
			t.Errorf("healed campaign has seed %d, want %d", c.Options().Seed, b.Seed)
		}
		got, err := st.Get(fpB)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Options, wantB) {
			t.Errorf("entry at B's fingerprint carries options %s, want %s", got.Options, wantB)
		}
	}
	heals("campaign A's artifact at B's fingerprint")

	broken, err := st.Get(fpB)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one SPICE level (a study with a unit per level), so the entry
	// is incomplete rather than merely missing a study computed on first use.
	for i, u := range broken.Units {
		if u.Study == string(StudySpiceMC) {
			broken.Units = append(broken.Units[:i], broken.Units[i+1:]...)
			break
		}
	}
	if err := st.Put(fpB, broken); err != nil {
		t.Fatal(err)
	}
	heals("an entry missing a unit")
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
	// written it.
	old := encodeV1(t, o)
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
