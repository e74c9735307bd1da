package artifact

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeArtifact hammers the store's trust boundary: Decode reads bytes
// from disk (or a peer's shard file) and must reject anything malformed with
// an error — never a panic — and anything it does accept must re-encode and
// re-decode cleanly (otherwise a store entry could be readable once and
// corrupt after the next rewrite). Seeds cover the interesting rejection
// classes: a valid envelope, truncation, version skew, a foreign schema, and
// an impossible shard position; committed corpus files under testdata/fuzz
// keep past crashers in regression.
func FuzzDecodeArtifact(f *testing.F) {
	valid := mkFuzzSeed(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                                     // truncated mid-document
	f.Add(bytes.Replace(valid, []byte(`"version": 1`), []byte(`"version": 99`), 1)) // version skew
	f.Add([]byte(`{"schema":"other","version":1,"shard":0,"of":1}`))
	f.Add([]byte(`{"schema":"` + Schema + `","version":1,"shard":5,"of":2}`))
	f.Add([]byte(`{"schema":"` + Schema + `","version":1,"shard":0,"of":1,"options":{"a":}}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(bytes.NewReader(data))
		if err != nil {
			if a != nil {
				t.Fatal("Decode returned both an artifact and an error")
			}
			return
		}
		// Accepted input: the envelope invariants hold ...
		if a.Schema != Schema || a.Version != Version {
			t.Fatalf("Decode accepted schema %q version %d", a.Schema, a.Version)
		}
		if a.Of < 1 || a.Shard < 0 || a.Shard >= a.Of {
			t.Fatalf("Decode accepted shard position %d/%d", a.Shard, a.Of)
		}
		// ... and the artifact survives a rewrite cycle, as a store overwrite
		// or a merge would perform.
		var buf bytes.Buffer
		if err := Encode(&buf, a); err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		if _, err := Decode(&buf); err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
	})
}

// mkFuzzSeed encodes a small but fully-populated artifact — the same shape a
// shard run writes — as the fuzzer's starting point.
func mkFuzzSeed(f *testing.F) []byte {
	f.Helper()
	a, err := New(0, 1, json.RawMessage(`{"Seed":42,"ModuleNames":["B3"],"SpiceMCRuns":2}`))
	if err != nil {
		f.Fatal(err)
	}
	a.Units = append(a.Units,
		Unit{Study: "rowhammer", Key: "B3", Data: json.RawMessage(`{"hcfirst":4000}`)},
		Unit{Study: "spice-mc", Key: "2.500", Data: json.RawMessage(`{"runs":2}`)})
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		f.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"version": 1`) {
		f.Fatal("seed encoding drifted; update the version-skew mutation")
	}
	return buf.Bytes()
}
