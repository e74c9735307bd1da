package rhvpp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"github.com/dramstudy/rhvpp/internal/artifact"
	"github.com/dramstudy/rhvpp/internal/experiments"
)

// ProgressEvent reports one step of a running study: a study announcement
// (Key == "", Done == 0) when its computation begins, then one event per
// completed work unit with the study's cumulative completion count. The
// campaign cells (the CLI's -progress, the server's progress stream) and
// RunShardObserved emit the same events; a study loaded rather than run
// reports nothing. Events carry no wall-clock timestamps — progress, like
// everything else the campaign emits, is a pure function of the options and
// the execution state.
type ProgressEvent struct {
	// Study is the canonical study name ("rowhammer", "spice-mc", ...).
	Study string `json:"study"`
	// Key is the completed unit's key (module label or formatted VPP level),
	// or "" for the study-start announcement.
	Key string `json:"key,omitempty"`
	// Done counts the study's completed units so far.
	Done int `json:"done"`
	// Total is the study's unit count under these options (in a shard run,
	// the shard's own share).
	Total int `json:"total"`
}

// ProgressFunc receives progress events. Module-sweep events fire from the
// worker pool's goroutines and studies may run concurrently, so
// implementations must be safe for concurrent calls. One study's unit events
// arrive one at a time with Done counting up to Total, in completion order —
// NOT the catalog order the results fold in.
type ProgressFunc func(ProgressEvent)

// WithProgress installs a progress hook for studies that have not run yet
// and returns c for chaining. Call it before the first Run.
// The hook observes execution only; installing one never changes a byte of
// what the campaign reports.
func (c *Campaign) WithProgress(fn ProgressFunc) *Campaign {
	c.progress = fn
	return c
}

// runStudy executes one study's units in-process. A non-nil fn first hears
// the study announced with len(units), then one event per completed unit.
// The unit events are sent under one lock, so fn sees Done count up in
// order, and must not wait for a later event of the same study.
func runStudy(ctx context.Context, o Options, s Study, units []WorkUnit, fn ProgressFunc) ([]any, error) {
	var onUnit func(WorkUnit)
	if fn != nil {
		fn(ProgressEvent{Study: string(s), Total: len(units)})
		var mu sync.Mutex
		done := 0
		onUnit = func(u WorkUnit) {
			mu.Lock()
			defer mu.Unlock()
			done++
			fn(ProgressEvent{Study: string(s), Key: u.Key, Done: done, Total: len(units)})
		}
	}
	return experiments.RunUnits(ctx, o, string(s), units, onUnit)
}

// RunShardObserved is RunShard reporting progress to fn, one study at a
// time in the order the studies first appear in units. A nil fn is exactly
// RunShard.
func RunShardObserved(ctx context.Context, o Options, shard, of int, units []WorkUnit, fn ProgressFunc) (*ShardArtifact, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	opts, err := canonicalOptions(o)
	if err != nil {
		return nil, err
	}
	art, err := artifact.New(shard, of, opts)
	if err != nil {
		return nil, err
	}
	// Group by study, preserving unit order within each study.
	byStudy := make(map[string][]WorkUnit)
	var order []string
	for _, u := range units {
		if _, ok := byStudy[u.Study]; !ok {
			order = append(order, u.Study)
		}
		byStudy[u.Study] = append(byStudy[u.Study], u)
	}
	for _, study := range order {
		su := byStudy[study]
		parts, err := runStudy(ctx, o, Study(study), su, fn)
		if err == nil {
			art.Units, err = appendUnits(art.Units, su, parts)
		}
		if err != nil {
			return nil, fmt.Errorf("rhvpp: shard %d/%d study %s: %w", shard, of, study, err)
		}
	}
	return art, nil
}

// appendUnits appends each unit with its partial, encoded as the JSON
// payload an artifact carries, to an artifact's units. It is where a
// partial leaves the process: the shard artifact and the store entry.
func appendUnits(dst []artifact.Unit, units []WorkUnit, parts []any) ([]artifact.Unit, error) {
	for i, p := range parts {
		raw, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("rhvpp: encoding %s unit %s: %w", units[i].Study, units[i].Key, err)
		}
		dst = append(dst, artifact.Unit{Study: units[i].Study, Key: units[i].Key, Index: units[i].Index, Data: raw})
	}
	return dst, nil
}

// OptionsFingerprint returns the canonical options fingerprint: the SHA-256
// of the canonical options encoding, in lowercase hex. It is the
// content-address of a campaign — shard artifacts embed the same canonical
// encoding, and the artifact store keys each completed study by this
// digest and the study name.
// The execution-shape knob Jobs is excluded exactly as it is from shard
// artifacts, so requests differing only in worker count share one
// fingerprint, one computation, and one set of store entries.
func OptionsFingerprint(o Options) (string, error) {
	raw, err := canonicalOptions(o)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// ArtifactStore is the content-addressed on-disk store of completed
// studies: one shard 0-of-1 artifact per (options fingerprint, study); see
// internal/artifact.
type ArtifactStore = artifact.Store

// Store errors, re-exported for callers distinguishing a cache miss from a
// damaged entry.
var (
	ErrArtifactNotFound = artifact.ErrNotFound
	ErrArtifactCorrupt  = artifact.ErrCorrupt
)

// OpenArtifactStore opens (creating if needed) a content-addressed artifact
// store rooted at dir, sweeping any partially-written temp files a crashed
// writer left behind.
func OpenArtifactStore(dir string) (*ArtifactStore, error) { return artifact.OpenStore(dir) }

// CachedCampaign returns a Campaign for o whose study cells are backed by
// the artifact store, with every shardable study filled in plan order before
// it returns. A cell reads its study's entry — an ordinary shard 0-of-1
// artifact of that study's units, keyed by (fingerprint, study) — or runs
// the study, reporting progress to fn, and puts the entry; fromStore reports
// that no study ran. An entry that does not decode, carries other options or
// another study's units, or does not assemble is a miss that study alone
// recomputes and overwrites. Entries of studies finished before a
// cancellation stay. A nil store computes every study. Whole-campaign
// entries written by older builds are no longer read. The waveform study
// computes on first render, as in any Campaign.
func CachedCampaign(ctx context.Context, o Options, st *ArtifactStore, fn ProgressFunc) (c *Campaign, fromStore bool, err error) {
	if c, err = NewCampaign(o); err != nil {
		return nil, false, err
	}
	c.progress = fn
	if st != nil {
		c.store = &studyStore{st: st}
		if c.store.fp, err = OptionsFingerprint(o); err == nil {
			c.store.canon, err = canonicalOptions(o)
		}
		if err != nil {
			return nil, false, err
		}
	}
	for _, s := range ShardableStudies() {
		if err := fills[s](c, ctx); err != nil {
			return nil, false, err
		}
	}
	return c, len(c.StudyRuns()) == 0, nil
}

// studyStore files one campaign's studies as artifact-store entries, one
// per study. A nil *studyStore stores nothing.
type studyStore struct {
	st    *ArtifactStore
	fp    string          // the campaign's options fingerprint
	canon json.RawMessage // the canonical options every entry carries
}

// studyKey is the store key of study s's entry: a SHA-256 of (fingerprint,
// study) in lowercase hex, the key shape the store accepts.
func studyKey(fp string, s Study) string {
	sum := sha256.Sum256([]byte(fp + "/" + string(s)))
	return hex.EncodeToString(sum[:])
}

// get returns study s's payloads by unit key from its entry, or nil on a
// miss and for an entry that is not this study under these options
// (corrupt, other options, another study's units, a unit twice). Only a
// store failure other than a miss or damage is an error.
func (ss *studyStore) get(s Study) (map[string]json.RawMessage, error) {
	if ss == nil {
		return nil, nil
	}
	art, err := ss.st.Get(studyKey(ss.fp, s))
	switch {
	case errors.Is(err, ErrArtifactNotFound), errors.Is(err, ErrArtifactCorrupt):
		return nil, nil
	case err != nil:
		return nil, err
	case !bytes.Equal(art.Options, ss.canon):
		return nil, nil
	}
	if by, err := studyPayloads(art); err == nil && len(by[s]) == len(art.Units) {
		return by[s], nil
	}
	return nil, nil
}

// put files study s's computed partials as its entry, overwriting any
// other.
func (ss *studyStore) put(s Study, units []WorkUnit, parts []any) error {
	if ss == nil {
		return nil
	}
	art, err := artifact.New(0, 1, ss.canon)
	if err != nil {
		return err
	}
	if art.Units, err = appendUnits(nil, units, parts); err != nil {
		return err
	}
	if err := ss.st.Put(studyKey(ss.fp, s), art); err != nil {
		return fmt.Errorf("rhvpp: persisting study %s: %w", s, err)
	}
	return nil
}

// PresetOptions resolves a campaign preset by name: "" or "default" (the
// laptop-scale campaign), "paper" (the full-scale parameters), or "golden"
// (the pinned regression scope behind testdata/golden). The CLI's -preset
// flag and the serve API's preset query parameter both resolve through here,
// so they name exactly the same campaigns.
func PresetOptions(name string) (Options, error) {
	switch name {
	case "", "default":
		return DefaultOptions(), nil
	case "paper":
		return PaperOptions(), nil
	case "golden":
		return GoldenOptions(), nil
	}
	return Options{}, fmt.Errorf("unknown preset %q (known: default, paper, golden)", name)
}
