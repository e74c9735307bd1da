package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"

	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/physics"
)

// Options scales the experiment campaign. The paper's full scale (272 chips,
// 4K rows each, 10 iterations) runs for weeks on an FPGA; Default keeps the
// same structure at a size a laptop simulates in seconds, and Paper restores
// the full parameters.
//
// The fields below are the frozen v1 canonical-fingerprint set
// (docs/CONTRACTS.md): fields added later must carry `json:",omitempty"` so
// shard artifacts produced before the addition still merge with ones
// produced after. The root package's TestCanonicalOptionsContract pins it.
type Options struct {
	// Seed selects the simulated device population.
	Seed uint64
	// Geometry is the simulated array organization.
	Geometry physics.Geometry
	// Config is the methodology parameter set (iterations, search steps).
	Config core.Config
	// Chunks and RowsPerChunk select the tested victim rows per module
	// (the paper uses 4 chunks of 1K rows).
	Chunks, RowsPerChunk int
	// ModuleNames restricts the campaign to a subset of Table 3 modules;
	// empty means all 30. Unknown names are an error (see Validate).
	ModuleNames []string
	// VPPStride subsamples the 0.1 V sweep (1 = every level, 2 = every
	// other level, ...). The nominal level and VPPmin are always included.
	VPPStride int
	// SpiceMCRuns is the Monte-Carlo campaign size per VPP level for the
	// Fig. 8b / 9b distributions (the paper runs 10K).
	SpiceMCRuns int
	// RetentionVPPLevels are the voltages swept by the Fig. 10 retention
	// study (clamped per module to its VPPmin).
	RetentionVPPLevels []float64
	// Jobs bounds how many module testbeds are characterized concurrently
	// (0 = one worker per CPU). Results are merged in catalog order, so
	// any value produces byte-identical output.
	Jobs int
}

// Default returns a laptop-scale campaign preserving the paper's structure.
func Default() Options {
	return Options{
		Seed:               2022,
		Geometry:           physics.Geometry{Banks: 1, RowsPerBank: 8192, RowBytes: 1024, SubarrayRows: 512},
		Config:             core.Quick(),
		Chunks:             4,
		RowsPerChunk:       6,
		VPPStride:          2,
		SpiceMCRuns:        200,
		RetentionVPPLevels: []float64{2.5, 2.1, 1.9, 1.7, 1.5},
	}
}

// Paper returns the full-scale parameters (very slow; provided for
// completeness).
func Paper() Options {
	o := Default()
	o.Geometry = physics.FullGeometry()
	o.Config = core.Default()
	o.RowsPerChunk = 1000
	o.VPPStride = 1
	o.SpiceMCRuns = 10000
	o.RetentionVPPLevels = []float64{2.5, 2.4, 2.3, 2.2, 2.1, 2.0, 1.9, 1.8, 1.7, 1.6, 1.5}
	return o
}

// KnownModuleNames lists the Table 3 labels in catalog order.
func KnownModuleNames() []string { return slices.Clone(catalogNames) }

// catalogNames is the Table 3 labels in catalog order. Read-only.
var catalogNames = func() []string {
	all := physics.Profiles()
	names := make([]string, 0, len(all))
	for _, p := range all {
		names = append(names, p.Name)
	}
	return names
}()

// Validate rejects campaigns that would silently test the wrong population
// (every entry of ModuleNames must be a Table 3 label, with no duplicates)
// or misread their own knobs: a negative Jobs is an error — it is neither
// "serial" (that is 1) nor "one per CPU" (that is 0), so accepting it would
// quietly run a configuration the caller never asked for. An Alg. 2 step
// that is not positive and finite is an error too: a zero step never moves
// the latency sweep off its start. So is a Monte-Carlo size below one run:
// the Fig. 8b/9b fractions would divide by it.
func (o Options) Validate() error {
	if o.Jobs < 0 {
		return fmt.Errorf("experiments: Jobs %d is negative (use 0 for one worker per CPU, or a positive worker count)", o.Jobs)
	}
	if step := o.Config.TRCDStepNS; !(step > 0) || math.IsInf(step, 1) {
		return fmt.Errorf("experiments: Config.TRCDStepNS %v is not a positive, finite latency step", step)
	}
	if o.SpiceMCRuns < 1 {
		return fmt.Errorf("experiments: SpiceMCRuns %d is below one Monte-Carlo run per VPP level", o.SpiceMCRuns)
	}
	_, err := o.moduleNames()
	return err
}

// moduleNames resolves the module subset: the selected labels in selection
// order, or the whole catalog when none are selected. It errors on names
// outside the tested population (the old behavior of quietly dropping them
// made e.g. a typo in -modules shrink the campaign without a trace) and on
// a name selected twice. Every campaign plan resolves through here, so it
// allocates nothing for a valid selection and the result is read-only.
func (o Options) moduleNames() ([]string, error) {
	if len(o.ModuleNames) == 0 {
		return catalogNames, nil
	}
	var unknown []string
	for i, name := range o.ModuleNames {
		switch {
		case !slices.Contains(catalogNames, name):
			unknown = append(unknown, name)
		case slices.Contains(o.ModuleNames[:i], name):
			return nil, fmt.Errorf("experiments: module %q selected twice", name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("experiments: unknown module(s) %s (known Table 3 labels: %s)",
			strings.Join(unknown, ", "), strings.Join(catalogNames, " "))
	}
	return o.ModuleNames, nil
}

// FirstModule returns the first selected module name, or the fallback when
// the campaign covers the full population. The fallback must itself be a
// Table 3 label; drivers resolve it with physics.ProfileByName and error
// otherwise.
func (o Options) FirstModule(fallback string) string {
	if len(o.ModuleNames) > 0 {
		return o.ModuleNames[0]
	}
	return fallback
}

// jobs resolves the worker-pool bound.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// vppLevels returns the swept voltages for a module, honoring the stride
// while always keeping the endpoints.
func (o Options) vppLevels(p physics.ModuleProfile) []float64 {
	full := p.VPPLevels()
	stride := o.VPPStride
	if stride < 1 {
		stride = 1
	}
	var out []float64
	for i, v := range full {
		if i%stride == 0 || i == len(full)-1 {
			out = append(out, v)
		}
	}
	return out
}

// selectVictims returns tested rows that have a usable aggressor pair.
func selectVictims(t *core.Tester, o Options) []int {
	var out []int
	for _, r := range core.SelectRows(o.Geometry, o.Chunks, o.RowsPerChunk) {
		if _, _, err := t.AggressorsFor(r); err == nil {
			out = append(out, r)
		}
	}
	return out
}
