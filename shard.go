package rhvpp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"github.com/dramstudy/rhvpp/internal/artifact"
	"github.com/dramstudy/rhvpp/internal/experiments"
)

// WorkUnit names one independently-executable slice of a study: a per-module
// testbed for the RowHammer / tRCD / retention / word-analysis / CV sweeps,
// a per-VPP-level Monte-Carlo run range for the SPICE study. Units are
// deterministic — the same Options always plan the same units in the same
// catalog/level order — which is what lets a campaign split across processes
// and merge back byte-identically.
type WorkUnit = experiments.UnitRef

// ShardArtifact is the versioned on-disk encoding of one shard's study
// results; see internal/artifact for the format and compatibility contract.
type ShardArtifact = artifact.Artifact

// EncodeArtifact writes a shard artifact as JSON with deterministic unit
// order.
func EncodeArtifact(w io.Writer, a *ShardArtifact) error { return artifact.Encode(w, a) }

// DecodeArtifact reads one shard artifact, rejecting unknown schemas and
// format versions this build does not speak.
func DecodeArtifact(r io.Reader) (*ShardArtifact, error) { return artifact.Decode(r) }

// ShardableStudies lists the studies that partition into work units, in plan
// order. The waveform study is absent by design: it is a single cheap
// deterministic simulation, recomputed locally by whichever process renders.
func ShardableStudies() []Study {
	names := experiments.ShardableStudies()
	out := make([]Study, len(names))
	for i, n := range names {
		out[i] = Study(n)
	}
	return out
}

// PlanUnits returns the deterministic work units of the given studies
// (default: every shardable study) under o, concatenated in plan order.
// Slicing this list with ShardUnits and executing each slice anywhere — any
// process, any host, any worker count — yields artifacts MergeArtifacts can
// fold back into the exact single-process campaign.
func PlanUnits(o Options, studies ...Study) ([]WorkUnit, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(studies) == 0 {
		studies = ShardableStudies()
	}
	seen := make(map[Study]bool, len(studies))
	var units []WorkUnit
	for _, s := range studies {
		if seen[s] {
			return nil, fmt.Errorf("rhvpp: study %q listed twice", s)
		}
		seen[s] = true
		su, err := experiments.PlanStudy(o, string(s))
		if err != nil {
			return nil, err
		}
		units = append(units, su...)
	}
	return units, nil
}

// Plan returns the campaign's work units for the given studies (default:
// every shardable study).
func (c *Campaign) Plan(studies ...Study) ([]WorkUnit, error) {
	return PlanUnits(c.opts, studies...)
}

// ShardUnits returns the units assigned to shard `shard` of `of`: every
// of-th unit starting at shard, so load spreads across studies and the
// module catalog. The assignment is deterministic and the union over all
// shards is exactly `units`.
func ShardUnits(units []WorkUnit, shard, of int) ([]WorkUnit, error) {
	if of < 1 {
		return nil, fmt.Errorf("rhvpp: shard set size %d < 1", of)
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("rhvpp: shard index %d outside [0,%d)", shard, of)
	}
	var out []WorkUnit
	for i, u := range units {
		if i%of == shard {
			out = append(out, u)
		}
	}
	return out, nil
}

// canonicalOptions is the options fingerprint embedded in artifacts.
// Execution-irrelevant knobs are excluded: Jobs changes only how fast a
// shard runs, never what it measures, so shards produced at different
// worker counts merge freely. TestCanonicalOptionsContract pins that Jobs
// is the only field it changes.
func canonicalOptions(o Options) (json.RawMessage, error) {
	o.Jobs = 0
	raw, err := json.Marshal(o)
	if err != nil {
		return nil, fmt.Errorf("rhvpp: encoding options: %w", err)
	}
	return raw, nil
}

// RunShard executes the given units in-process and packages their results as
// shard `shard` of `of`. It is the library form of `rhvpp -shard i/n`.
func RunShard(ctx context.Context, o Options, shard, of int, units []WorkUnit) (*ShardArtifact, error) {
	return RunShardObserved(ctx, o, shard, of, units, nil)
}

// MergeArtifacts validates a complete shard set and opens a Campaign whose
// covered studies are preloaded from the artifacts, folded in catalog/(level,
// run) order — rendering any experiment from it reproduces the
// single-process campaign byte for byte. Studies absent from the artifacts
// (and the deliberately-local waveform study) compute on first use, so the
// merged campaign can still render every experiment id.
//
// The campaign options come from the artifacts themselves; all shards must
// carry the identical canonical options, and those options must re-encode
// to the same bytes. Decoding ignores unknown fields, so the re-encoding is
// what refuses artifacts measured under an option this binary no longer
// has (such as a retired SPICE tolerance), instead of rendering their
// results under the options that remain.
func MergeArtifacts(arts ...*ShardArtifact) (*Campaign, error) {
	merged, err := artifact.Merge(arts)
	if err != nil {
		return nil, err
	}
	var o Options
	if err := json.Unmarshal(merged.Options, &o); err != nil {
		return nil, fmt.Errorf("rhvpp: decoding artifact options: %w", err)
	}
	canon, err := canonicalOptions(o)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(canon, merged.Options) {
		return nil, fmt.Errorf("rhvpp: artifact options %s do not re-encode to themselves (%s): they carry an unknown or retired option", merged.Options, canon)
	}
	c, err := NewCampaign(o)
	if err != nil {
		return nil, err
	}
	byStudy := make(map[Study]map[string]json.RawMessage)
	for _, s := range ShardableStudies() {
		byStudy[s] = make(map[string]json.RawMessage)
	}
	for _, u := range merged.Units {
		data, ok := byStudy[Study(u.Study)]
		if !ok {
			return nil, fmt.Errorf("rhvpp: artifact carries units of unknown study %q", u.Study)
		}
		data[u.Key] = u.Data
	}
	// Fold in plan order, so a shard set broken in several studies always
	// reports the same study's error.
	for _, s := range ShardableStudies() {
		data := byStudy[s]
		if len(data) == 0 {
			continue
		}
		switch s {
		case StudyRowHammer:
			err = preload(o, data, &c.rowhammer, experiments.AssembleRowHammerStudy)
		case StudyTRCD:
			err = preload(o, data, &c.trcd, experiments.AssembleTRCDStudy)
		case StudyRetention:
			err = preload(o, data, &c.retention, experiments.AssembleRetentionStudy)
		case StudyWordAnalysis:
			err = preload(o, data, &c.words, experiments.AssembleWordAnalysis)
		case StudyCV:
			err = preload(o, data, &c.cv, experiments.AssembleCVStudy)
		case StudySpiceMC:
			err = preload(o, data, &c.spiceMC, experiments.AssembleMCStudy)
		}
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// preload assembles a study's merged unit payloads into its cell, so the
// campaign's accessor returns the result without running the study.
func preload[T any](o Options, data map[string]json.RawMessage, cl *cell[T],
	assemble func(Options, map[string]json.RawMessage) (T, error)) error {
	st, err := assemble(o, data)
	if err == nil {
		cl.set(st)
	}
	return err
}
