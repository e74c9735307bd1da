package artifact

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Schema identifies the document type.
const Schema = "rhvpp/shard-artifact"

// Version is the current format revision. Bump it when a unit payload or
// envelope field changes incompatibly.
const Version = 1

// Unit is one work unit's serialized partial result.
type Unit struct {
	// Study names the study the unit belongs to ("rowhammer", "spice-mc", ...).
	Study string `json:"study"`
	// Key identifies the unit within the study: the module name for the
	// per-module testbed studies, the formatted VPP level for the SPICE
	// Monte-Carlo run ranges.
	Key string `json:"key"`
	// Index is the unit's position in the study's catalog/level order; the
	// merge step folds units back in ascending Index per study.
	Index int `json:"index"`
	// Data is the study-defined partial result payload.
	Data json.RawMessage `json:"data"`
}

// Artifact is one shard's complete output.
type Artifact struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Shard and Of locate this artifact in its shard set: shard Shard of Of.
	// A merged (complete) artifact is canonically shard 0 of 1.
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// Options is the canonical encoding of the campaign options the shard
	// ran under. Merge requires byte equality across the shard set.
	Options json.RawMessage `json:"options"`
	// Units are the shard's partial results, sorted by (study, index).
	Units []Unit `json:"units"`
}

// New returns an empty artifact for shard `shard` of `of` under the given
// canonical options encoding.
func New(shard, of int, options json.RawMessage) (*Artifact, error) {
	if of < 1 {
		return nil, fmt.Errorf("artifact: shard set size %d < 1", of)
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("artifact: shard index %d outside [0,%d)", shard, of)
	}
	opts, err := compactOptions(options)
	if err != nil {
		return nil, err
	}
	return &Artifact{Schema: Schema, Version: Version, Shard: shard, Of: of, Options: opts}, nil
}

// compactOptions strips insignificant whitespace so the merge-time byte
// comparison is a real fingerprint check, not a formatting check (the
// indenting encoder reformats nested raw messages).
func compactOptions(options json.RawMessage) (json.RawMessage, error) {
	if len(options) == 0 {
		return options, nil
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, options); err != nil {
		return nil, fmt.Errorf("artifact: options are not valid JSON: %w", err)
	}
	return json.RawMessage(buf.Bytes()), nil
}

// sortUnits orders units by (study, index, key) so encoded artifacts are
// deterministic regardless of execution order.
func (a *Artifact) sortUnits() {
	sort.SliceStable(a.Units, func(i, j int) bool {
		ui, uj := a.Units[i], a.Units[j]
		if ui.Study != uj.Study {
			return ui.Study < uj.Study
		}
		if ui.Index != uj.Index {
			return ui.Index < uj.Index
		}
		return ui.Key < uj.Key
	})
}

// Encode writes the artifact as indented JSON.
func Encode(w io.Writer, a *Artifact) error {
	a.sortUnits()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(a)
}

// Decode reads one artifact, verifying the schema and version before
// trusting any of the payload.
func Decode(r io.Reader) (*Artifact, error) {
	var a Artifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("artifact: decoding: %w", err)
	}
	if a.Schema != Schema {
		return nil, fmt.Errorf("artifact: schema %q is not %q", a.Schema, Schema)
	}
	if a.Version != Version {
		return nil, fmt.Errorf("artifact: format version %d unsupported (this build reads version %d)",
			a.Version, Version)
	}
	if a.Of < 1 || a.Shard < 0 || a.Shard >= a.Of {
		return nil, fmt.Errorf("artifact: shard %d of %d is not a valid shard position", a.Shard, a.Of)
	}
	opts, err := compactOptions(a.Options)
	if err != nil {
		return nil, err
	}
	a.Options = opts
	return &a, nil
}

// Merge validates that arts form exactly one complete shard set measured
// under identical options and combines their units into a single complete
// artifact (shard 0 of 1), sorted by (study, index).
func Merge(arts []*Artifact) (*Artifact, error) {
	if len(arts) == 0 {
		return nil, fmt.Errorf("artifact: nothing to merge")
	}
	of := arts[0].Of
	if len(arts) != of {
		return nil, fmt.Errorf("artifact: got %d artifact(s) for a %d-way shard set", len(arts), of)
	}
	opts := string(arts[0].Options)
	seenShard := make([]bool, of)
	type unitID struct {
		study, key string
	}
	seenUnit := make(map[unitID]int)
	merged := &Artifact{Schema: Schema, Version: Version, Shard: 0, Of: 1, Options: arts[0].Options}
	for _, a := range arts {
		if a.Of != of {
			return nil, fmt.Errorf("artifact: mixed shard set sizes %d and %d", of, a.Of)
		}
		if a.Shard < 0 || a.Shard >= of {
			return nil, fmt.Errorf("artifact: shard %d of %d is not a valid shard position", a.Shard, of)
		}
		if string(a.Options) != opts {
			return nil, fmt.Errorf("artifact: shard %d was measured under different campaign options", a.Shard)
		}
		if seenShard[a.Shard] {
			return nil, fmt.Errorf("artifact: shard %d/%d supplied twice", a.Shard, of)
		}
		seenShard[a.Shard] = true
		for _, u := range a.Units {
			id := unitID{u.Study, u.Key}
			if prev, dup := seenUnit[id]; dup {
				return nil, fmt.Errorf("artifact: %s unit %q appears in shards %d and %d",
					u.Study, u.Key, prev, a.Shard)
			}
			seenUnit[id] = a.Shard
			merged.Units = append(merged.Units, u)
		}
	}
	merged.sortUnits()
	return merged, nil
}
