package rhvpp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"github.com/dramstudy/rhvpp/internal/artifact"
	"github.com/dramstudy/rhvpp/internal/experiments"
)

// ProgressEvent reports one step of a running study: a study announcement
// (Key == "", Done == 0) when execution begins, then one event per completed
// work unit with the study's cumulative completion count. Events carry no
// wall-clock timestamps — progress, like everything else the campaign emits,
// is a pure function of the options and the execution state.
type ProgressEvent struct {
	// Study is the canonical study name ("rowhammer", "spice-mc", ...).
	Study string `json:"study"`
	// Key is the completed unit's key (module label or formatted VPP level),
	// or "" for the study-start announcement.
	Key string `json:"key,omitempty"`
	// Done counts the study's completed units so far.
	Done int `json:"done"`
	// Total is the study's unit count under these options.
	Total int `json:"total"`
}

// ProgressFunc receives progress events. Module-sweep events fire from the
// worker pool's goroutines, so implementations must be safe for concurrent
// calls; events for one study arrive in completion order, which is NOT the
// catalog order the results fold in.
type ProgressFunc func(ProgressEvent)

// WithProgress installs a progress hook for studies that have not run yet
// and returns c for chaining. Call it before the first Run.
// The hook observes execution only; installing one never changes a byte of
// what the campaign reports.
func (c *Campaign) WithProgress(fn ProgressFunc) *Campaign {
	c.progress = fn
	return c
}

// RunShardObserved is RunShard with a per-unit completion hook — the
// execution path `rhvpp serve` computes (and streams progress for) a study
// on a cache miss. A nil onUnit is exactly RunShard.
func RunShardObserved(ctx context.Context, o Options, shard, of int, units []WorkUnit, onUnit func(WorkUnit)) (*ShardArtifact, error) {
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
	// Group by study, preserving unit order within each study; execute each
	// study's units in-process.
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
		payloads, err := experiments.RunUnits(ctx, o, study, su, onUnit)
		if err != nil {
			return nil, fmt.Errorf("rhvpp: shard %d/%d study %s: %w", shard, of, study, err)
		}
		for i, raw := range payloads {
			art.Units = append(art.Units, artifact.Unit{
				Study: su[i].Study, Key: su[i].Key, Index: su[i].Index, Data: raw,
			})
		}
	}
	return art, nil
}

// OptionsFingerprint returns the canonical options fingerprint: the SHA-256
// of the canonical options encoding, in lowercase hex. It is the
// content-address of a campaign — shard artifacts embed the same canonical
// encoding, and the artifact store keys completed studies by this digest.
// The execution-shape knob Jobs is excluded exactly as it is from shard
// artifacts, so requests differing only in worker count share one
// fingerprint, one computation, and one store entry.
func OptionsFingerprint(o Options) (string, error) {
	raw, err := canonicalOptions(o)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// ArtifactStore is the content-addressed on-disk store of completed shard
// artifacts, keyed by OptionsFingerprint; see internal/artifact.
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

// CachedCampaign returns a Campaign for o backed by the artifact store: a
// stored artifact at o's fingerprint is decoded and preloaded (fromStore
// true, no study recomputed); otherwise the full shardable plan executes
// in-process — reporting per-unit completion through onUnit — and the
// complete artifact persists to the store before the campaign returns. A
// corrupt store entry — one that does not decode, carries options other
// than o's canonical encoding, or does not merge — is treated as a miss and
// overwritten by the fresh computation, so one damaged file degrades a
// daemon to a recompute instead of wedging the fingerprint or serving
// another campaign's results. With a nil store it always computes.
//
// The returned campaign memoizes like any other: the deliberately-local
// waveform study (and nothing else) computes on first render.
func CachedCampaign(ctx context.Context, o Options, st *ArtifactStore, onUnit func(WorkUnit)) (c *Campaign, fromStore bool, err error) {
	if err := o.Validate(); err != nil {
		return nil, false, err
	}
	fp, err := OptionsFingerprint(o)
	if err != nil {
		return nil, false, err
	}
	if st != nil {
		c, err := storedCampaign(st, fp, o)
		switch {
		case err == nil:
			return c, true, nil
		case errors.Is(err, ErrArtifactNotFound), errors.Is(err, ErrArtifactCorrupt):
			// Miss either way: recompute, and overwrite the damaged entry.
		default:
			return nil, false, err
		}
	}
	units, err := PlanUnits(o)
	if err != nil {
		return nil, false, err
	}
	art, err := RunShardObserved(ctx, o, 0, 1, units, onUnit)
	if err != nil {
		return nil, false, err
	}
	if st != nil {
		if err := st.Put(fp, art); err != nil {
			return nil, false, fmt.Errorf("rhvpp: persisting campaign %s: %w", fp, err)
		}
	}
	c, err = MergeArtifacts(art)
	if err != nil {
		return nil, false, err
	}
	return c, false, nil
}

// storedCampaign opens the store entry at fp as o's campaign. An entry
// whose options differ from o's canonical encoding, or that MergeArtifacts
// rejects, is ErrArtifactCorrupt: the store is keyed by fingerprint, so
// such an entry is damage, not another campaign to serve.
func storedCampaign(st *ArtifactStore, fp string, o Options) (*Campaign, error) {
	art, err := st.Get(fp)
	if err != nil {
		return nil, err
	}
	canon, err := canonicalOptions(o)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(art.Options, canon) {
		return nil, fmt.Errorf("%w: %s: entry options %s are not %s", ErrArtifactCorrupt, fp, art.Options, canon)
	}
	c, err := MergeArtifacts(art)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrArtifactCorrupt, fp, err)
	}
	return c, nil
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

// LookupExperiment resolves an experiment id or returns the canonical
// unknown-id error — the one Campaign.Run returns and the CLI prints, so
// every surface rejects a bad id with the same words.
func LookupExperiment(id string) (Experiment, error) {
	e, ok := ExperimentByID(id)
	if !ok {
		return Experiment{}, fmt.Errorf("rhvpp: unknown experiment %q (known: %v)", id, ExperimentNames())
	}
	return e, nil
}
