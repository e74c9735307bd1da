package rhvpp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test -run TestGoldenCampaignOutput -update .
//
// The committed goldens were captured before the streaming-statistics
// refactor, so they pin the aggregation pipeline's output byte-for-byte
// across the batch-to-streaming migration.
var update = flag.Bool("update", false, "rewrite testdata golden files")

// goldenOptions is the pinned regression-campaign scope, exported as
// GoldenOptions so the CLI's `-preset golden` (and CI's sharded-equivalence
// job) replay exactly the campaign behind the committed goldens.
func goldenOptions() Options { return GoldenOptions() }

// renderAll renders every experiment id through one Campaign, like
// `rhvpp -exp all`, into a single buffer.
func renderAll(t *testing.T, o Options, format Format) []byte {
	t.Helper()
	c, err := NewCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	return renderAllWith(t, c, format)
}

// renderAllWith renders every experiment id through the given campaign.
func renderAllWith(t *testing.T, c *Campaign, format Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range Experiments() {
		buf.WriteString("== " + e.ID + " ==\n")
		enc, err := NewEncoder(format, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(t.Context(), e.ID, enc); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	return buf.Bytes()
}

// TestGoldenCampaignOutput pins the full `-exp all` rendering in every
// encoder format to the committed goldens: the streaming-statistics pipeline
// must not change a byte of what the campaign reports, and a parallel run
// (jobs=8, which also drives the global Monte-Carlo run queue with many
// workers) must match the serial rendering exactly.
func TestGoldenCampaignOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign render in -short mode")
	}
	exts := map[Format]string{FormatText: "txt", FormatJSON: "json", FormatCSV: "csv"}
	for _, format := range []Format{FormatText, FormatJSON, FormatCSV} {
		format := format
		t.Run(string(format), func(t *testing.T) {
			o := goldenOptions()
			o.Jobs = 1
			got := renderAll(t, o, format)

			path := filepath.Join("testdata", "golden", "all."+exts[format])
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test -run TestGoldenCampaignOutput -update .`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s output diverged from the pre-refactor golden %s (len %d vs %d)\n%s",
					format, path, len(got), len(want), firstDiff(got, want))
			}

			op := goldenOptions()
			op.Jobs = 8
			if parallel := renderAll(t, op, format); !bytes.Equal(parallel, got) {
				t.Errorf("%s output differs between jobs=1 and jobs=8\n%s",
					format, firstDiff(parallel, got))
			}
		})
	}
}

// goldenArtifactSHA256 is the digest of the golden campaign's 1-way shard
// artifact as EncodeArtifact writes it (47,680 bytes).
const goldenArtifactSHA256 = "1abd436d9209de2391a9e85836d5c53a95d3d82d688377927c5e29026d0042e3"

// TestGoldenShardMergeOutput is the sharding acceptance gate: the campaign
// split into 1-, 2-, and 3-way shard artifacts — each shard executed as its
// own RunShard with its slice of the plan, then folded back by
// MergeArtifacts — must reproduce testdata/golden/all.{txt,json,csv} BYTE
// FOR BYTE in every encoder format. The artifacts additionally make a full
// file-encoding round trip, and the 1-way artifact's bytes are pinned by
// digest (goldenArtifactSHA256), so the test pins the wire format, not just
// the in-memory merge: shard files and store entries written by earlier
// builds stay readable only while those bytes hold.
func TestGoldenShardMergeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded campaign renders in -short mode")
	}
	exts := map[Format]string{FormatText: "txt", FormatJSON: "json", FormatCSV: "csv"}
	goldens := map[Format][]byte{}
	for format, ext := range exts {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", "all."+ext))
		if err != nil {
			t.Fatalf("missing golden (run `go test -run TestGoldenCampaignOutput -update .`): %v", err)
		}
		goldens[format] = want
	}

	o := goldenOptions()
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
			art, err := RunShard(t.Context(), o, i, n, part)
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, n, err)
			}
			// Round-trip through the file encoding, like real shard files.
			var buf bytes.Buffer
			if err := EncodeArtifact(&buf, art); err != nil {
				t.Fatal(err)
			}
			if n == 1 {
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != goldenArtifactSHA256 {
					t.Errorf("1-way artifact (%d bytes) has sha256 %s, want %s", buf.Len(), got, goldenArtifactSHA256)
				}
			}
			if arts[i], err = DecodeArtifact(&buf); err != nil {
				t.Fatal(err)
			}
		}
		// One merged campaign renders all three formats from the same
		// artifacts — the render side is backend-independent.
		merged, err := MergeArtifacts(arts...)
		if err != nil {
			t.Fatalf("merge %d-way: %v", n, err)
		}
		for _, format := range []Format{FormatText, FormatJSON, FormatCSV} {
			got := renderAllWith(t, merged, format)
			if !bytes.Equal(got, goldens[format]) {
				t.Errorf("%d-way shard merge diverged from golden all.%s\n%s",
					n, exts[format], firstDiff(got, goldens[format]))
			}
		}
	}
}

// firstDiff locates the first byte where two renderings diverge and quotes
// the surrounding lines, so a golden failure points at the offending table.
func firstDiff(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) string {
		hi := i + 120
		if hi > len(b) {
			hi = len(b)
		}
		if lo >= len(b) {
			return ""
		}
		return string(b[lo:hi])
	}
	return "first divergence at byte " + itoa(i) + ":\n--- got ---\n" + clip(got) + "\n--- want ---\n" + clip(want)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
