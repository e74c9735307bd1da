package rhvpp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// paperGeometryDigests pins the JSON rendering of every experiment id but
// the SPICE figures at the paper preset: full geometry (16 banks × 32768
// rows of 8 KiB), modules A3, B3, B6 and C0, 1 chunk × 2 rows. The goldens
// run 1 bank × 4096 rows, so only this scope reaches a second bank and the
// far pages of the row tables. Keyed by seed; the digests were recorded
// before the row maps became paged tables.
var paperGeometryDigests = map[uint64]string{
	2022: "6f5bec0566021e267b3decc42cc81ab7afa029707168affd079a43eced9ff9d4",
	7:    "fc737d1fcb4b8daec195d854347207dafd3190c2750c8866fa620a0aed97498e",
}

// paperGeometrySkip lists the ids left out: the SPICE waveforms and
// Monte-Carlo never touch a row and would dominate the test's time.
var paperGeometrySkip = map[string]bool{"fig8a": true, "fig8b": true, "fig9a": true, "fig9b": true}

// TestPaperGeometryOutput renders the paper-geometry scope at each pinned
// seed and compares the digest of the bytes.
func TestPaperGeometryOutput(t *testing.T) {
	for _, seed := range []uint64{2022, 7} {
		o := PaperOptions()
		o.Seed = seed
		o.ModuleNames = []string{"A3", "B3", "B6", "C0"}
		o.Chunks, o.RowsPerChunk = 1, 2
		c, err := NewCampaign(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, e := range Experiments() {
			if paperGeometrySkip[e.ID] {
				continue
			}
			buf.WriteString("== " + e.ID + " ==\n")
			enc, err := NewEncoder(FormatJSON, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(t.Context(), e.ID, enc); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, e.ID, err)
			}
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != paperGeometryDigests[seed] {
			t.Errorf("seed %d: paper-geometry output digest %s, want %s", seed, got, paperGeometryDigests[seed])
		}
	}
}
