// Package optparse is the single parser for campaign-shaping knobs, shared
// by the rhvpp CLI's flags and the serve API's query parameters. Both
// surfaces accept the same knob names with the same semantics — a value is
// applied only when the caller set it, exactly the CLI's historical
// only-when-set behavior — so `rhvpp -exp fig5 -modules B3 -mc 50` and
// `GET /v1/experiments/fig5?modules=B3&mc=50` describe the identical
// campaign, and an invalid value is rejected with the same words everywhere.
//
// Overrides never validates the resulting campaign; it only parses and
// applies. Semantic rejection (negative jobs, unknown module names) stays
// with Options.Validate so every surface reports those errors identically.
package optparse

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/dramstudy/rhvpp/internal/experiments"
)

// Overrides holds parsed campaign knobs plus enough set-tracking to apply
// them with only-when-set semantics. The zero value overrides nothing.
type Overrides struct {
	// Modules is the comma-separated module subset ("" = preset's set).
	Modules string
	// Rows overrides RowsPerChunk when > 0.
	Rows int
	// Chunks overrides Options.Chunks when > 0.
	Chunks int
	// Seed overrides the simulation seed when != 0.
	Seed uint64
	// Stride overrides VPPStride when > 0.
	Stride int
	// MCRuns overrides SpiceMCRuns when > 0.
	MCRuns int
	// Jobs overrides Options.Jobs when JobsSet is true. Jobs is the one
	// knob whose meaningful values include 0 (one worker per CPU) and
	// whose invalid values (negative) must still reach Validate, so
	// presence is tracked explicitly instead of inferred from the value.
	Jobs    int
	JobsSet bool
}

// knobNames lists every Set-addressable knob in presentation order — the
// same names the CLI registers as flags.
var knobNames = []string{
	"modules", "rows", "chunks", "seed", "stride", "mc", "jobs",
}

// Known returns the knob names Set accepts, in presentation order.
func Known() []string { return append([]string(nil), knobNames...) }

// Set parses one named knob from its string form — a query parameter or any
// other stringly surface. Unknown names and unparseable values are errors;
// semantically invalid values (negative jobs, unknown modules) parse fine
// here and are rejected later by Options.Validate.
func (ov *Overrides) Set(name, value string) error {
	badValue := func(err error) error {
		return fmt.Errorf("option %s: invalid value %q (%v)", name, value, err)
	}
	switch name {
	case "modules":
		ov.Modules = value
		return nil
	case "rows":
		return setInt(&ov.Rows, value, badValue)
	case "chunks":
		return setInt(&ov.Chunks, value, badValue)
	case "seed":
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return badValue(err)
		}
		ov.Seed = n
		return nil
	case "stride":
		return setInt(&ov.Stride, value, badValue)
	case "mc":
		return setInt(&ov.MCRuns, value, badValue)
	case "jobs":
		if err := setInt(&ov.Jobs, value, badValue); err != nil {
			return err
		}
		ov.JobsSet = true
		return nil
	}
	return fmt.Errorf("unknown option %q (known: %s)", name, strings.Join(knobNames, ", "))
}

func setInt(dst *int, value string, badValue func(error) error) error {
	n, err := strconv.Atoi(value)
	if err != nil {
		return badValue(err)
	}
	*dst = n
	return nil
}

// Apply lays the set knobs over a preset's options. Unset knobs (zero
// values, except Jobs which tracks presence) leave the preset untouched.
func (ov Overrides) Apply(o *experiments.Options) {
	if ov.Modules != "" {
		o.ModuleNames = strings.Split(ov.Modules, ",")
	}
	if ov.Rows > 0 {
		o.RowsPerChunk = ov.Rows
	}
	if ov.Chunks > 0 {
		o.Chunks = ov.Chunks
	}
	if ov.Seed != 0 {
		o.Seed = ov.Seed
	}
	if ov.Stride > 0 {
		o.VPPStride = ov.Stride
	}
	if ov.MCRuns > 0 {
		o.SpiceMCRuns = ov.MCRuns
	}
	if ov.JobsSet {
		o.Jobs = ov.Jobs
	}
}

// Flags registers the knobs as flags on fs, bound to ov. The CLI treats its
// -jobs flag as always present (its default 0 means one worker per CPU, the
// same as every preset), so Parse marks JobsSet via the flag.Value rather
// than fs.Visit bookkeeping.
func (ov *Overrides) Flags(fs *flag.FlagSet) {
	fs.StringVar(&ov.Modules, "modules", "", "comma-separated module subset (e.g. B3,C0); empty = all 30")
	fs.IntVar(&ov.Rows, "rows", 0, "rows per chunk (0 = default)")
	fs.IntVar(&ov.Chunks, "chunks", 0, "row chunks per module (0 = default)")
	fs.Uint64Var(&ov.Seed, "seed", 0, "simulation seed (0 = default)")
	fs.IntVar(&ov.Stride, "stride", 0, "VPP sweep stride (1 = every 0.1V level)")
	fs.IntVar(&ov.MCRuns, "mc", 0, "SPICE Monte-Carlo runs per voltage (0 = default)")
	fs.Var(jobsFlag{ov}, "jobs", "concurrent module sweeps (0 = one per CPU)")
}

// jobsFlag adapts the Jobs knob to flag.Value so a -jobs occurrence flips
// JobsSet exactly like a jobs= query parameter does.
type jobsFlag struct{ ov *Overrides }

func (j jobsFlag) String() string {
	if j.ov == nil {
		return "0"
	}
	return strconv.Itoa(j.ov.Jobs)
}

func (j jobsFlag) Set(value string) error { return j.ov.Set("jobs", value) }
