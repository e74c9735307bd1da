package artifact

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func mkArtifact(t *testing.T, shard, of int, opts string, units ...Unit) *Artifact {
	t.Helper()
	a, err := New(shard, of, json.RawMessage(opts))
	if err != nil {
		t.Fatal(err)
	}
	a.Units = units
	return a
}

func TestNewValidatesShardPosition(t *testing.T) {
	for _, tc := range []struct{ shard, of int }{{0, 0}, {-1, 2}, {2, 2}, {5, 3}} {
		if _, err := New(tc.shard, tc.of, nil); err == nil {
			t.Errorf("New(%d, %d) accepted", tc.shard, tc.of)
		}
	}
	if _, err := New(1, 3, nil); err != nil {
		t.Errorf("valid shard rejected: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := mkArtifact(t, 1, 2, `{"seed":7}`)
	if err := a.Add("rowhammer", "B3", 3, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Add("rowhammer", "A0", 0, map[string]int{"x": 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != 1 || got.Of != 2 || len(got.Units) != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	// Units come back sorted by (study, index) for deterministic bytes.
	if got.Units[0].Key != "A0" || got.Units[1].Key != "B3" {
		t.Errorf("units not in catalog order: %v %v", got.Units[0].Key, got.Units[1].Key)
	}
	if string(got.Options) != `{"seed":7}` {
		t.Errorf("options mangled: %s", got.Options)
	}
}

func TestDecodeRejectsWrongSchemaAndFutureVersion(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"schema":"other","version":1,"shard":0,"of":1}`)); err == nil {
		t.Error("foreign schema accepted")
	}
	_, err := Decode(strings.NewReader(`{"schema":"` + Schema + `","version":99,"shard":0,"of":1}`))
	if err == nil {
		t.Fatal("future version accepted")
	}
	if !strings.Contains(err.Error(), "99") || !strings.Contains(err.Error(), "1") {
		t.Errorf("version error should name both versions: %v", err)
	}
	if _, err := Decode(strings.NewReader(`{"schema":"` + Schema + `","version":1,"shard":3,"of":2}`)); err == nil {
		t.Error("out-of-range shard position accepted")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMergeCombinesACompleteSet(t *testing.T) {
	u := func(study, key string, idx int) Unit {
		return Unit{Study: study, Key: key, Index: idx, Data: json.RawMessage(`{}`)}
	}
	a0 := mkArtifact(t, 0, 2, `{"o":1}`, u("rowhammer", "A0", 0), u("spice-mc", "2.5", 0))
	a1 := mkArtifact(t, 1, 2, `{"o":1}`, u("rowhammer", "B3", 1))
	m, err := Merge([]*Artifact{a1, a0}) // order of files must not matter
	if err != nil {
		t.Fatal(err)
	}
	if m.Shard != 0 || m.Of != 1 {
		t.Errorf("merged artifact should be canonical 0/1, got %d/%d", m.Shard, m.Of)
	}
	if len(m.Units) != 3 {
		t.Fatalf("merged %d units, want 3", len(m.Units))
	}
	// Sorted by (study, index).
	order := []string{"A0", "B3", "2.5"}
	for i, want := range order {
		if m.Units[i].Key != want {
			t.Errorf("unit %d = %q, want %q", i, m.Units[i].Key, want)
		}
	}
}

func TestMergeRejectsBrokenShardSets(t *testing.T) {
	u := func(key string) Unit { return Unit{Study: "s", Key: key, Data: json.RawMessage(`{}`)} }
	if _, err := Merge(nil); err == nil {
		t.Error("empty merge accepted")
	}
	// Incomplete: 1 of 2 shards.
	if _, err := Merge([]*Artifact{mkArtifact(t, 0, 2, `{}`)}); err == nil {
		t.Error("incomplete shard set accepted")
	}
	// Duplicate shard index.
	if _, err := Merge([]*Artifact{mkArtifact(t, 0, 2, `{}`), mkArtifact(t, 0, 2, `{}`)}); err == nil {
		t.Error("duplicate shard accepted")
	}
	// Mixed set sizes.
	if _, err := Merge([]*Artifact{mkArtifact(t, 0, 2, `{}`), mkArtifact(t, 0, 1, `{}`)}); err == nil {
		t.Error("mixed shard set sizes accepted")
	}
	// Shard positions outside [0, of): Decode refuses them, and so must
	// Merge for artifacts built in memory.
	outside := mkArtifact(t, 0, 1, `{}`)
	outside.Shard = 3
	if _, err := Merge([]*Artifact{outside}); err == nil {
		t.Error("shard 3 of 1 accepted")
	}
	negative := mkArtifact(t, 0, 2, `{}`)
	negative.Shard = -1
	if _, err := Merge([]*Artifact{negative, mkArtifact(t, 1, 2, `{}`)}); err == nil {
		t.Error("shard -1 of 2 accepted")
	}
	// Mismatched options.
	if _, err := Merge([]*Artifact{mkArtifact(t, 0, 2, `{"seed":1}`), mkArtifact(t, 1, 2, `{"seed":2}`)}); err == nil {
		t.Error("mismatched options accepted")
	}
	// Same unit in two shards.
	_, err := Merge([]*Artifact{mkArtifact(t, 0, 2, `{}`, u("B3")), mkArtifact(t, 1, 2, `{}`, u("B3"))})
	if err == nil {
		t.Error("duplicate unit accepted")
	} else if !strings.Contains(err.Error(), "B3") {
		t.Errorf("duplicate-unit error should name the unit: %v", err)
	}
}
