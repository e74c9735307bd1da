package optparse

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/dramstudy/rhvpp"
)

// FuzzQueryOptions hammers the knob parser the CLI and the serve API share.
// The input is a query-shaped list of name=value pairs joined by '&', run in
// order through Set, then Apply over the default preset, then Validate —
// the serving layer's path from a request to a campaign. A repeated name is
// set once per occurrence and its last value stays, as with a repeated CLI
// flag (the server refuses a repeated query key before this path). Nothing
// on that path may panic; a name outside Known() (including a retired knob
// such as batch, ltetol or fixed-grid) must fail with the standard
// unknown-option error; a negative rows, chunks, stride or mc must fail; and
// every campaign that survives Validate must have an OptionsFingerprint,
// because the server keys its flights and store entries by it. Committed
// corpus files under testdata/fuzz keep past findings in regression.
func FuzzQueryOptions(f *testing.F) {
	for _, seed := range []string{
		"",
		"modules=B3,C0&rows=8&chunks=1&seed=77&stride=2&mc=50",
		"ltetol=0.002&fixed-grid=true&jobs=2", // retired knobs
		"jobs=-1",
		"modules=ZZ",
		"rows=eight",
		"ltetol=+Inf", // retired knob
		"rowz=5&rows=2",
		"stride=-1",
		"mc=-5&rows=2",
		"chunks=0&rows=-3",
		"mc=5&mc=50", // repeated knob
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		var ov Overrides
		for _, pair := range strings.Split(query, "&") {
			name, value, _ := strings.Cut(pair, "=")
			err := ov.Set(name, value)
			if !slices.Contains(Known(), name) {
				want := fmt.Sprintf("unknown option %q (known: %s)", name, strings.Join(Known(), ", "))
				if err == nil || err.Error() != want {
					t.Fatalf("Set(%q, %q) = %v, want %q", name, value, err, want)
				}
			}
			if n, perr := strconv.Atoi(value); perr == nil && n < 0 && slices.Contains([]string{"rows", "chunks", "stride", "mc"}, name) && err == nil {
				t.Fatalf("Set(%q, %q) accepted a negative count", name, value)
			}
			if err != nil {
				return // the server rejects the request at its first bad knob
			}
		}
		o := rhvpp.DefaultOptions()
		ov.Apply(&o)
		if o.Validate() != nil {
			return
		}
		if _, err := rhvpp.OptionsFingerprint(o); err != nil {
			t.Fatalf("%q: validated options have no fingerprint: %v", query, err)
		}
	})
}
