// Sharded campaign execution: every shared study partitions into
// deterministic, independently-executable work units — one per-module testbed
// for the RowHammer / tRCD / retention / word-analysis / CV sweeps, one
// per-VPP-level Monte-Carlo run range for the SPICE study — and each unit's
// typed partial result folds back in catalog/(level, run) order. A
// single-process campaign folds the partials it computed; a sharded one
// decodes them from JSON shard artifacts first and folds them through the
// same StudyFold, so it reproduces the single-process output byte for byte.

package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/pool"
	"github.com/dramstudy/rhvpp/internal/spice"
	"github.com/dramstudy/rhvpp/internal/stats"
)

// Canonical study names, shared with the root package's Study constants and
// the shard-artifact encoding.
const (
	StudyNameRowHammer    = "rowhammer"
	StudyNameTRCD         = "trcd"
	StudyNameRetention    = "retention"
	StudyNameWaveforms    = "spice-waveforms"
	StudyNameSpiceMC      = "spice-mc"
	StudyNameWordAnalysis = "word-analysis"
	StudyNameCV           = "cv"
)

// ShardableStudies lists the studies that partition into work units, in the
// fixed order sharding plans enumerate them. The SPICE waveform study is
// deliberately absent: it is a single cheap deterministic simulation with no
// per-module or per-run structure, so every process (including the merge
// renderer) computes it locally.
func ShardableStudies() []string {
	return []string{
		StudyNameRowHammer,
		StudyNameTRCD,
		StudyNameRetention,
		StudyNameWordAnalysis,
		StudyNameCV,
		StudyNameSpiceMC,
	}
}

// UnitRef names one work unit of one study.
type UnitRef struct {
	// Study is the canonical study name.
	Study string `json:"study"`
	// Key identifies the unit: the module label for per-module studies, the
	// formatted VPP level ("2.5") for the SPICE Monte-Carlo.
	Key string `json:"key"`
	// Index is the unit's position in the study's catalog/level order.
	Index int `json:"index"`
}

// PlanStudy returns the study's work units in deterministic catalog/level
// order for the given (validated) options.
func PlanStudy(o Options, study string) ([]UnitRef, error) {
	switch study {
	case StudyNameRowHammer, StudyNameTRCD, StudyNameRetention, StudyNameWordAnalysis, StudyNameCV:
		names, err := o.moduleNames()
		if err != nil {
			return nil, err
		}
		units := make([]UnitRef, len(names))
		for i, name := range names {
			units[i] = UnitRef{Study: study, Key: name, Index: i}
		}
		return units, nil
	case StudyNameSpiceMC:
		units := make([]UnitRef, len(spiceSweepVPPs))
		for i, vpp := range spiceSweepVPPs {
			units[i] = UnitRef{Study: study, Key: mcLevelKey(vpp), Index: i}
		}
		return units, nil
	}
	return nil, fmt.Errorf("experiments: study %q is not shardable (shardable: %s)",
		study, strings.Join(ShardableStudies(), " "))
}

// mcLevelKey formats a Monte-Carlo VPP level as a unit key.
func mcLevelKey(vpp float64) string { return fmt.Sprintf("%.1f", vpp) }

// mcConfig is the Monte-Carlo configuration the campaign uses for the
// Fig. 8b/9b study (±5% component variation, §4.5).
func mcConfig(o Options) spice.MCConfig {
	return spice.MCConfig{
		Runs:      o.SpiceMCRuns,
		Seed:      o.Seed,
		Variation: 0.05,
		Jobs:      o.jobs(),
	}
}

// validateUnits checks that every requested unit belongs to the study's plan
// under these options.
func validateUnits(o Options, study string, units []UnitRef) error {
	plan, err := PlanStudy(o, study)
	if err != nil {
		return err
	}
	byKey := make(map[string]int, len(plan))
	for _, u := range plan {
		byKey[u.Key] = u.Index
	}
	for _, u := range units {
		if u.Study != study {
			return fmt.Errorf("experiments: unit %s/%q handed to the %s study", u.Study, u.Key, study)
		}
		idx, ok := byKey[u.Key]
		if !ok || idx != u.Index {
			return fmt.Errorf("experiments: unit %s/%q (index %d) is not part of this campaign's plan",
				study, u.Key, u.Index)
		}
	}
	return nil
}

// RunUnits executes the given work units of ONE study and returns each
// unit's typed partial result, index-aligned with units: a ModuleSweep
// (RowHammer), TRCDSweep (tRCD), ModuleRetention, ModuleWords, stats.Dist
// (CV) or spice.MCResult (one per level). The
// study's StudyFold folds them; nothing is encoded here, so a campaign that
// keeps its results in process never touches JSON. Bytes are made only
// where a partial leaves the process (a shard artifact, a store entry), and
// StudyFold.Assemble decodes them back into the same values.
//
// Module-sweep units run Options.Jobs at a time through the bounded pool of
// internal/pool. SPICE Monte-Carlo units run as ONE RunMonteCarloSweep over
// the units' levels, so a shard keeps the global run queue (workers stay
// busy across level boundaries) and each level's runs fold in (level, run)
// order — per-level results are identical no matter how levels are grouped
// into shards, because every run draws from its own per-level, per-index RNG
// stream.
//
// The optional onUnit hook fires once per unit as its partial result
// becomes available. Module-study hooks fire from the pool's worker
// goroutines (concurrently, in completion order — the results themselves
// still fold in catalog order); SPICE Monte-Carlo hooks fire in level order
// after the sweep, because the global run queue interleaves levels and a
// level is not "done" until the sweep is. The hook observes execution only:
// a nil or absent hook returns the same partials. The parameter is variadic
// only so four-argument callers keep compiling; callers pass at most one
// hook.
func RunUnits(ctx context.Context, o Options, study string, units []UnitRef, onUnit ...func(UnitRef)) ([]any, error) {
	hook := func(UnitRef) {}
	if len(onUnit) > 0 && onUnit[0] != nil {
		hook = onUnit[0]
	}
	if len(units) == 0 {
		return nil, nil
	}
	if err := validateUnits(o, study, units); err != nil {
		return nil, err
	}
	if study == StudyNameSpiceMC {
		vpps := make([]float64, len(units))
		for i, u := range units {
			vpps[i] = spiceSweepVPPs[u.Index]
		}
		results, err := spice.RunMonteCarloSweep(ctx, vpps, mcConfig(o))
		if err != nil {
			return nil, fmt.Errorf("Monte Carlo sweep: %w", err)
		}
		out := make([]any, len(results))
		for i, r := range results {
			out[i] = r
			hook(units[i])
		}
		return out, nil
	}
	return pool.Run(ctx, o.jobs(), units,
		func(ctx context.Context, u UnitRef) (any, error) {
			prof, _ := physics.ProfileByName(u.Key) // validated above
			part, err := runModuleUnit(ctx, o, study, prof)
			if err != nil {
				return nil, err
			}
			hook(u)
			return part, nil
		})
}

// runModuleUnit executes one per-module work unit and returns its typed
// partial.
func runModuleUnit(ctx context.Context, o Options, study string, prof physics.ModuleProfile) (any, error) {
	switch study {
	case StudyNameRowHammer:
		return RunModuleSweep(ctx, o, prof)
	case StudyNameTRCD:
		return RunTRCDSweep(ctx, o, prof)
	case StudyNameRetention:
		return RunModuleRetention(ctx, o, prof)
	case StudyNameWordAnalysis:
		return RunModuleWords(ctx, o, prof)
	case StudyNameCV:
		return runModuleCV(ctx, o, prof)
	}
	return nil, fmt.Errorf("experiments: study %q has no per-module units", study)
}

// StudyFold folds one shardable study's unit partials, of type P, into the
// study S. Fold takes the partials RunUnits computed; Assemble decodes unit
// payloads first. Both end in the same fold, so a study folded in process
// and one decoded from a shard artifact or a store entry are the same
// value.
type StudyFold[P, S any] struct {
	study string
	fold  func(Options, []P) (S, error)
}

// The folds of the shardable studies.
var (
	RowHammerFold    = StudyFold[ModuleSweep, RowHammerStudy]{StudyNameRowHammer, foldRowHammer}
	TRCDFold         = StudyFold[TRCDSweep, TRCDStudy]{StudyNameTRCD, foldTRCD}
	RetentionFold    = StudyFold[ModuleRetention, RetentionStudy]{StudyNameRetention, foldRetention}
	WordAnalysisFold = StudyFold[ModuleWords, WordAnalysis]{StudyNameWordAnalysis, foldWordAnalysis}
	CVFold           = StudyFold[stats.Dist, CVStudy]{StudyNameCV, foldCV}
	MCFold           = StudyFold[spice.MCResult, MCStudy]{StudyNameSpiceMC, foldMC}
)

// Fold folds the partials RunUnits returned for the study's whole plan, in
// plan order.
func (f StudyFold[P, S]) Fold(o Options, parts []any) (S, error) {
	var zero S
	plan, err := PlanStudy(o, f.study)
	if err != nil {
		return zero, err
	}
	if len(parts) != len(plan) {
		return zero, fmt.Errorf("experiments: %s has %d partials, the plan has %d units", f.study, len(parts), len(plan))
	}
	typed := make([]P, len(parts))
	for i, p := range parts {
		var ok bool
		if typed[i], ok = p.(P); !ok {
			return zero, fmt.Errorf("experiments: %s unit %s partial is a %T", f.study, plan[i].Key, p)
		}
	}
	return f.fold(o, typed)
}

// Assemble rebuilds the study from unit payloads keyed by unit key: it
// checks them against the plan (a missing or surplus unit fails loudly),
// decodes them in plan order and folds them.
func (f StudyFold[P, S]) Assemble(o Options, data map[string]json.RawMessage) (S, error) {
	var zero S
	ordered, err := orderedPartials(o, f.study, data)
	if err != nil {
		return zero, err
	}
	typed := make([]P, len(ordered))
	for i, raw := range ordered {
		if err := json.Unmarshal(raw, &typed[i]); err != nil {
			return zero, fmt.Errorf("experiments: decoding %s unit %d: %w", f.study, i, err)
		}
	}
	return f.fold(o, typed)
}

// orderedPartials resolves the study's complete unit payload set in plan
// order, erroring on missing or surplus units — the completeness check that
// makes a partial shard set fail loudly at assembly.
func orderedPartials(o Options, study string, data map[string]json.RawMessage) ([]json.RawMessage, error) {
	plan, err := PlanStudy(o, study)
	if err != nil {
		return nil, err
	}
	if len(data) > len(plan) {
		known := make(map[string]bool, len(plan))
		for _, u := range plan {
			known[u.Key] = true
		}
		for k := range data {
			if !known[k] {
				return nil, fmt.Errorf("experiments: %s unit %q is not part of this campaign's plan", study, k)
			}
		}
	}
	out := make([]json.RawMessage, len(plan))
	for i, u := range plan {
		raw, ok := data[u.Key]
		if !ok {
			return nil, fmt.Errorf("experiments: shard set incomplete: %s unit %q missing (have %d of %d units)",
				study, u.Key, len(data), len(plan))
		}
		out[i] = raw
	}
	return out, nil
}

// foldRowHammer folds the Fig. 3-6 / Table 3 study from module sweeps in
// catalog order.
func foldRowHammer(o Options, sweeps []ModuleSweep) (RowHammerStudy, error) {
	if err := checkModules(o, StudyNameRowHammer, func(i int) string { return sweeps[i].Profile.Name }); err != nil {
		return RowHammerStudy{}, err
	}
	return RowHammerStudy{Sweeps: sweeps}, nil
}

// foldTRCD folds the Fig. 7 study.
func foldTRCD(o Options, sweeps []TRCDSweep) (TRCDStudy, error) {
	if err := checkModules(o, StudyNameTRCD, func(i int) string { return sweeps[i].Profile.Name }); err != nil {
		return TRCDStudy{}, err
	}
	return TRCDStudy{Sweeps: sweeps}, nil
}

// checkModules checks that the i-th partial of a per-module study (in plan
// order) is labeled with the i-th planned module. A decoded sweep whose
// payload lacks its "module" label leaves the profile zero, and one with
// another module's label would render under that module's name.
func checkModules(o Options, study string, label func(i int) string) error {
	names, err := o.moduleNames()
	if err != nil {
		return err
	}
	for i, name := range names {
		if got := label(i); got != name {
			return fmt.Errorf("experiments: %s unit %q holds a partial labeled %q", study, name, got)
		}
	}
	return nil
}

// foldMC folds the Fig. 8b/9b study from per-level results in sweep-level
// order.
func foldMC(_ Options, results []spice.MCResult) (MCStudy, error) {
	for i, r := range results {
		if mcLevelKey(r.VPP) != mcLevelKey(spiceSweepVPPs[i]) {
			return MCStudy{}, fmt.Errorf("experiments: MC partial at level %s carries VPP %.2f",
				mcLevelKey(spiceSweepVPPs[i]), r.VPP)
		}
	}
	return MCStudy{Results: results}, nil
}
