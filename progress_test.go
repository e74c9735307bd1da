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

// renderStudies renders one experiment per shardable study as JSON.
func renderStudies(t *testing.T, c *Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, id := range []string{"table3", "fig7", "fig10a", "fig11", "cv", "fig8b"} {
		enc, err := NewEncoder(FormatJSON, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background(), id, enc); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// entryKey is the store key of study s's entry under o.
func entryKey(t *testing.T, o Options, s Study) string {
	t.Helper()
	fp, err := OptionsFingerprint(o)
	if err != nil {
		t.Fatal(err)
	}
	return studyKey(fp, s)
}

// TestCachedCampaignStoreRoundTrip computes through an artifact store and
// replays from it: the first call files one shard 0-of-1 entry per
// shardable study, holding that study's units only, and the second call
// loads every study from disk (no study runs, no progress) and renders
// byte-identically.
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
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(ShardableStudies()) {
		t.Errorf("store holds %d entries, want one per shardable study (%d)", len(keys), len(ShardableStudies()))
	}
	for _, s := range ShardableStudies() {
		art, err := st.Get(entryKey(t, o, s))
		if err != nil {
			t.Fatalf("study %s not persisted: %v", s, err)
		}
		if art.Shard != 0 || art.Of != 1 || len(art.Units) == 0 {
			t.Errorf("study %s entry is shard %d of %d with %d units", s, art.Shard, art.Of, len(art.Units))
		}
		for _, u := range art.Units {
			if u.Study != string(s) {
				t.Errorf("study %s entry carries a %s unit", s, u.Study)
			}
		}
	}

	var col collectProgress
	c2, fromStore, err := CachedCampaign(context.Background(), o, st, col.fn)
	if err != nil {
		t.Fatal(err)
	}
	if !fromStore {
		t.Error("warm store missed")
	}
	if runs := c2.StudyRuns(); len(runs) != 0 {
		t.Errorf("store hit still ran studies: %v", runs)
	}
	if ev := col.snapshot(); len(ev) != 0 {
		t.Errorf("store hit reported progress: %+v", ev)
	}
	if !bytes.Equal(renderStudies(t, c1), renderStudies(t, c2)) {
		t.Error("store-loaded campaign renders different bytes")
	}
}

// TestCachedCampaignHealsCorruptEntry damages a study's store entry and
// checks the next request treats it as a miss, recomputes that study, and
// overwrites the damage.
func TestCachedCampaignHealsCorruptEntry(t *testing.T) {
	st, err := OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := campaignOptions("B3")
	if _, _, err := CachedCampaign(context.Background(), o, st, nil); err != nil {
		t.Fatal(err)
	}
	key := entryKey(t, o, StudyRowHammer)
	if err := os.WriteFile(st.Path(key), []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(key); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("damaged entry reads as %v, want ErrArtifactCorrupt", err)
	}
	c, fromStore, err := CachedCampaign(context.Background(), o, st, nil)
	if err != nil {
		t.Fatalf("corrupt entry wedged the fingerprint: %v", err)
	}
	if fromStore {
		t.Error("corrupt entry served as a hit")
	}
	if runs := c.StudyRuns(); len(runs) != 1 || runs[StudyRowHammer] != 1 {
		t.Errorf("study runs %v, want the damaged rowhammer study alone", runs)
	}
	if _, err := st.Get(key); err != nil {
		t.Errorf("recomputation did not heal the entry: %v", err)
	}
}

// TestCachedCampaignRecomputesOnlyDamagedStudy damages the spice-mc entry
// alone: the next request recomputes spice-mc and nothing else, rewrites
// the entry with the same bytes, and renders what the first request did.
func TestCachedCampaignRecomputesOnlyDamagedStudy(t *testing.T) {
	st, err := OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := campaignOptions("B3")
	c1, _, err := CachedCampaign(context.Background(), o, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := st.Path(entryKey(t, o, StudySpiceMC))
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, want[:len(want)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c2, fromStore, err := CachedCampaign(context.Background(), o, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Error("a damaged entry served the campaign as a store hit")
	}
	runs := c2.StudyRuns()
	for _, s := range ShardableStudies() {
		want := 0
		if s == StudySpiceMC {
			want = 1
		}
		if runs[s] != want {
			t.Errorf("study %s ran %d times, want %d", s, runs[s], want)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the recomputed spice-mc entry differs from the original")
	}
	if !bytes.Equal(renderStudies(t, c1), renderStudies(t, c2)) {
		t.Error("the healed campaign renders different bytes")
	}
}

// TestCachedCampaignKeepsStudiesFinishedBeforeCancel cancels a campaign as
// its second study starts: the first study's entry stays in the store, the
// canceled study files none, and the next request loads the first study
// instead of recomputing it.
func TestCachedCampaignKeepsStudiesFinishedBeforeCancel(t *testing.T) {
	st, err := OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := campaignOptions("B3")
	first, second := ShardableStudies()[0], ShardableStudies()[1]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err = CachedCampaign(ctx, o, st, func(ev ProgressEvent) {
		if ev.Study == string(second) && ev.Key == "" {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign returned %v", err)
	}
	if _, err := st.Get(entryKey(t, o, first)); err != nil {
		t.Errorf("study %s finished before the cancel but left no entry: %v", first, err)
	}
	if _, err := st.Get(entryKey(t, o, second)); !errors.Is(err, ErrArtifactNotFound) {
		t.Errorf("canceled study %s entry reads as %v, want a miss", second, err)
	}
	c, _, err := CachedCampaign(context.Background(), o, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs := c.StudyRuns(); runs[first] != 0 || runs[second] != 1 {
		t.Errorf("study runs after the cancel %v, want %s loaded and %s computed", runs, first, second)
	}
}

// TestCachedCampaignRejectsForeignEntries checks that a store entry is
// served only under the options and for the study it was measured with:
// campaign A's entries filed at B's keys, another study's units at a
// study's key, or an entry missing a unit are each corrupt entries that B
// recomputes and overwrites, never foreign results under B's key and never
// a wedged fingerprint.
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
	for _, s := range ShardableStudies() {
		artA, err := st.Get(entryKey(t, a, s))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(entryKey(t, b, s), artA); err != nil {
			t.Fatal(err)
		}
	}
	wantB, err := canonicalOptions(b)
	if err != nil {
		t.Fatal(err)
	}
	// heals requires that a call under b recomputes over the planted
	// entries and that the following call is a hit on b's own entries.
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
		for _, s := range ShardableStudies() {
			got, err := st.Get(entryKey(t, b, s))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Options, wantB) {
				t.Errorf("study %s entry at B's key carries options %s, want %s", s, got.Options, wantB)
			}
			for _, u := range got.Units {
				if u.Study != string(s) {
					t.Errorf("study %s entry at B's key carries a %s unit", s, u.Study)
				}
			}
		}
	}
	heals("campaign A's entries at B's keys")

	// The tRCD study's units share the rowhammer study's unit keys (module
	// labels), so only the study check tells the two entries apart.
	trcd, err := st.Get(entryKey(t, b, StudyTRCD))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(entryKey(t, b, StudyRowHammer), trcd); err != nil {
		t.Fatal(err)
	}
	heals("the tRCD entry at the rowhammer key")

	broken, err := st.Get(entryKey(t, b, StudySpiceMC))
	if err != nil {
		t.Fatal(err)
	}
	// Drop one SPICE level (the study has a unit per level), so the entry
	// is incomplete.
	broken.Units = broken.Units[1:]
	if err := st.Put(entryKey(t, b, StudySpiceMC), broken); err != nil {
		t.Fatal(err)
	}
	heals("an entry missing a unit")
}

// TestCachedCampaignFindsPreGrowthEntries pins the omitempty contract at the
// store: entries written before the post-v1 options fields existed live at
// the same keys today's options produce (at default knob values), so they
// are still found and still decode.
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

	// Rewrite each stored entry's embedded options to the pre-growth (v1)
	// encoding, as a server from before the omitempty fields would have
	// written it.
	old := encodeV1(t, o)
	for _, s := range ShardableStudies() {
		key := entryKey(t, o, s)
		art, err := st.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(art.Options, old) {
			t.Fatalf("canonical options drifted from the v1 freeze:\n v1: %s\nnow: %s", old, art.Options)
		}
		art.Options = old
		if err := st.Put(key, art); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh store handle (a restarted server) finds and decodes them.
	st2, err := OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var col collectProgress
	c, fromStore, err := CachedCampaign(context.Background(), o, st2, col.fn)
	if err != nil {
		t.Fatalf("pre-growth entries do not decode: %v", err)
	}
	if !fromStore || len(c.StudyRuns()) != 0 || len(col.snapshot()) != 0 {
		t.Errorf("pre-growth entries missed (fromStore=%v, runs %v)", fromStore, c.StudyRuns())
	}
}

// TestCachedCampaignNilStoreComputes checks the storeless path (serve
// without -store): every call computes every shardable study, announcing
// each and reporting its units.
func TestCachedCampaignNilStoreComputes(t *testing.T) {
	o := campaignOptions("B3")
	var col collectProgress
	_, fromStore, err := CachedCampaign(context.Background(), o, nil, col.fn)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore {
		t.Error("nil store reported a hit")
	}
	announced := map[string]bool{}
	units := 0
	for _, ev := range col.snapshot() {
		if ev.Key == "" {
			announced[ev.Study] = true
		} else {
			units++
		}
	}
	if len(announced) != len(ShardableStudies()) || units == 0 {
		t.Errorf("announced %v and %d unit completions, want every shardable study", announced, units)
	}
}
