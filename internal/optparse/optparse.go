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
// The one exception is a negative rows, chunks, stride or mc: 0 already means
// "the preset's value" for those knobs, so Apply cannot pass a negative one
// on and Set rejects it.
package optparse

import (
	"errors"
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

// Set parses one named knob from its string form — a query parameter, a CLI
// flag or any other stringly surface. Unknown names, unparseable values and
// a negative rows, chunks, stride or mc are errors; other semantically
// invalid values (negative jobs, unknown modules) parse fine here and are
// rejected later by Options.Validate.
func (ov *Overrides) Set(name, value string) error {
	badValue := func(err error) error {
		return fmt.Errorf("option %s: invalid value %q (%v)", name, value, err)
	}
	switch name {
	case "modules":
		ov.Modules = value
		return nil
	case "rows":
		return setCount(&ov.Rows, value, badValue)
	case "chunks":
		return setCount(&ov.Chunks, value, badValue)
	case "seed":
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return badValue(err)
		}
		ov.Seed = n
		return nil
	case "stride":
		return setCount(&ov.Stride, value, badValue)
	case "mc":
		return setCount(&ov.MCRuns, value, badValue)
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

// setCount parses a knob whose 0 means the preset's value and whose negative
// values mean nothing.
func setCount(dst *int, value string, badValue func(error) error) error {
	n, err := strconv.Atoi(value)
	if err == nil && n < 0 {
		err = errors.New("must not be negative; 0 keeps the preset's value")
	}
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

// Flags registers the knobs as flags on fs, bound to ov. The integer knobs
// parse through Set, so a flag and a query parameter accept and reject the
// same values, and a -jobs occurrence flips JobsSet exactly like a jobs=
// query parameter does (the CLI's default 0 means one worker per CPU, the
// same as every preset).
func (ov *Overrides) Flags(fs *flag.FlagSet) {
	fs.StringVar(&ov.Modules, "modules", "", "comma-separated module subset (e.g. B3,C0); empty = all 30")
	fs.Var(knobFlag{ov, "rows", &ov.Rows}, "rows", "rows per chunk (0 = default)")
	fs.Var(knobFlag{ov, "chunks", &ov.Chunks}, "chunks", "row chunks per module (0 = default)")
	fs.Uint64Var(&ov.Seed, "seed", 0, "simulation seed (0 = default)")
	fs.Var(knobFlag{ov, "stride", &ov.Stride}, "stride", "VPP sweep stride (1 = every 0.1V level)")
	fs.Var(knobFlag{ov, "mc", &ov.MCRuns}, "mc", "SPICE Monte-Carlo runs per voltage (0 = default)")
	fs.Var(knobFlag{ov, "jobs", &ov.Jobs}, "jobs", "concurrent module sweeps (0 = one per CPU)")
}

// knobFlag adapts the integer knob name, stored at val, to flag.Value,
// parsing through Set.
type knobFlag struct {
	ov   *Overrides
	name string
	val  *int
}

func (k knobFlag) String() string {
	if k.val == nil {
		return "0"
	}
	return strconv.Itoa(*k.val)
}

func (k knobFlag) Set(value string) error { return k.ov.Set(k.name, value) }
