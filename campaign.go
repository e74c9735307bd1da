package rhvpp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dramstudy/rhvpp/internal/experiments"
	"github.com/dramstudy/rhvpp/internal/report"
)

// Study identifies one of the shared measurement campaigns a Campaign
// memoizes. Several experiments render from the same study; declaring the
// dependency on the descriptor lets callers see (and tests assert) what a
// given experiment will actually execute.
type Study string

// The memoized studies. The string values are the canonical study names
// shared with the shard-artifact encoding (internal/experiments).
const (
	// StudyRowHammer is the Alg. 1 sweep across modules (Table 3, Figs.
	// 3-6, the §5 aggregates, and the defense-cost ablation).
	StudyRowHammer Study = experiments.StudyNameRowHammer
	// StudyTRCD is the Alg. 2 activation-latency sweep (Fig. 7, §6.1).
	StudyTRCD Study = experiments.StudyNameTRCD
	// StudyRetention is the Alg. 3 refresh-window ladder (Fig. 10).
	StudyRetention Study = experiments.StudyNameRetention
	// StudyWaveforms is the SPICE transient simulation (Figs. 8a, 9a).
	StudyWaveforms Study = experiments.StudyNameWaveforms
	// StudySpiceMC is the SPICE Monte-Carlo campaign (Figs. 8b, 9b).
	StudySpiceMC Study = experiments.StudyNameSpiceMC
	// StudyWordAnalysis is the word-granularity retention study (Fig. 11).
	StudyWordAnalysis Study = experiments.StudyNameWordAnalysis
	// StudyCV is the §4.6 coefficient-of-variation analysis.
	StudyCV Study = experiments.StudyNameCV
)

// Encoding aliases, so callers don't need to import the report package.
type (
	// Encoder serializes experiment output; see NewEncoder.
	Encoder = report.Encoder
	// Format selects an output encoding (FormatText, FormatJSON, FormatCSV).
	Format = report.Format
)

// Re-exported output formats.
const (
	FormatText = report.FormatText
	FormatJSON = report.FormatJSON
	FormatCSV  = report.FormatCSV
)

// NewEncoder returns an encoder writing the given format to w.
func NewEncoder(f Format, w io.Writer) (Encoder, error) { return report.NewEncoder(f, w) }

// Formats lists the supported output encodings.
func Formats() []Format { return report.Formats() }

// NewTextEncoder returns the terminal encoder (aligned tables, ASCII plots).
func NewTextEncoder(w io.Writer) Encoder { return report.NewText(w) }

// Experiment describes one runnable table, figure, ablation, or extension of
// the evaluation.
type Experiment struct {
	// ID is the stable identifier ("table3", "fig5", "abl-trr", ...).
	ID string
	// Title is a human-readable one-liner for listings.
	Title string
	// Section locates the result in the paper.
	Section string
	// Studies lists the shared campaigns this experiment renders from; an
	// empty list means the experiment is self-contained (static tables,
	// module-scoped ablations).
	Studies []Study

	run func(ctx context.Context, c *Campaign, enc Encoder) error
}

// Run executes the experiment within campaign c, emitting to enc. Studies it
// depends on are computed on first use and reused afterwards.
func (e Experiment) Run(ctx context.Context, c *Campaign, enc Encoder) error {
	if e.run == nil {
		return fmt.Errorf("rhvpp: experiment %q has no driver", e.ID)
	}
	return e.run(ctx, c, enc)
}

// cell memoizes one study result. The first caller computes while holding
// the lock; concurrent callers block until the computation finishes and then
// share the value. A computation aborted by context cancellation is NOT
// memoized — the cancellation was the caller's, not the study's, so a later
// Run with a live context measures again instead of replaying the stale
// error. Genuine measurement failures are memoized like results.
type cell[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
	err  error
}

func (c *cell[T]) get(fn func() (T, error)) (T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return c.val, c.err
	}
	val, err := fn()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return val, err // don't poison the session with a canceled attempt
	}
	c.val, c.err = val, err
	c.done = true
	return c.val, c.err
}

// set preloads the cell with an already-computed value (a study assembled
// from merged shard artifacts); later get calls return it without running.
func (c *cell[T]) set(v T) {
	c.mu.Lock()
	c.val, c.err, c.done = v, nil, true
	c.mu.Unlock()
}

// Campaign is one characterization session at a fixed Options: the shared
// studies behind the paper's tables and figures run at most once per session
// and every experiment renders from the memoized results, so regenerating
// the whole evaluation costs one RowHammer sweep, one tRCD sweep, one
// retention ladder, one SPICE campaign — not one per figure.
//
// A Campaign is safe for concurrent use: parallel Run calls that need the
// same study share a single execution (later callers block until the first
// finishes, under the first caller's context). A run aborted by context
// cancellation is not cached; the next Run with a live context measures
// again. Module sweeps inside each study run Options.Jobs modules at a time
// and merge in catalog order, so output is byte-identical at any worker
// count.
//
// Study aggregation is streaming: distribution columns render from
// internal/stats accumulators that fold each measurement as it is produced
// (the SPICE Monte-Carlo levels additionally share one global run queue), so
// a session's memory is bounded by the catalog, the measurement grids, and
// the configured row selection — never by SpiceMCRuns. Scaling Options
// toward the paper's 10K-runs-per-level (and beyond) grows campaign time,
// not campaign memory.
//
// Study execution runs in-process: each study plans into deterministic work
// units (per-module testbeds; per-VPP-level Monte-Carlo run ranges), runs
// them on the bounded worker pool, and folds the results back in
// catalog/(level, run) order. The same units power multi-host sharding:
// PlanUnits + ShardUnits + RunShard emit per-shard artifacts, and
// MergeArtifacts folds them back into a preloaded Campaign.
type Campaign struct {
	opts     Options
	progress ProgressFunc

	rowhammer cell[experiments.RowHammerStudy]
	trcd      cell[experiments.TRCDStudy]
	retention cell[experiments.RetentionStudy]
	waveforms cell[experiments.Waveforms]
	spiceMC   cell[experiments.MCStudy]
	words     cell[experiments.WordAnalysis]
	cv        cell[experiments.CVStudy]

	mu   sync.Mutex
	runs map[Study]int
}

// NewCampaign validates the options and opens a session. Unknown or
// duplicated ModuleNames (and a negative Jobs) are rejected here, before any
// testbed is built.
func NewCampaign(o Options) (*Campaign, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &Campaign{opts: o, runs: make(map[Study]int)}, nil
}

// Options returns the campaign's (immutable) parameters.
func (c *Campaign) Options() Options { return c.opts }

// StudyRuns reports how many times each study actually executed in this
// session. After rendering every experiment id, each entry is still 1 — the
// property the memoization exists for.
func (c *Campaign) StudyRuns() map[Study]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Study]int, len(c.runs))
	for k, v := range c.runs {
		out[k] = v
	}
	return out
}

func (c *Campaign) countRun(s Study) {
	c.mu.Lock()
	c.runs[s]++
	c.mu.Unlock()
}

// shardedStudy returns a shardable study from its cell, computing it on
// first use: plan the units, run them in-process with the campaign's
// progress hook, and assemble the payloads, indexed by unit key, into the
// cell. The assemble step verifies completeness against the same plan.
func shardedStudy[T any](ctx context.Context, c *Campaign, s Study, cl *cell[T],
	assemble func(Options, map[string]json.RawMessage) (T, error)) (T, error) {
	return cl.get(func() (T, error) {
		c.countRun(s)
		var zero T
		units, err := c.Plan(s)
		if err != nil {
			return zero, err
		}
		var onUnit func(WorkUnit)
		if fn := c.progress; fn != nil {
			fn(ProgressEvent{Study: string(s), Total: len(units)})
			var done atomic.Int64
			onUnit = func(u WorkUnit) {
				fn(ProgressEvent{Study: string(s), Key: u.Key, Done: int(done.Add(1)), Total: len(units)})
			}
		}
		payloads, err := experiments.RunUnits(ctx, c.opts, string(s), units, onUnit)
		if err != nil {
			return zero, err
		}
		data := make(map[string]json.RawMessage, len(payloads))
		for i, raw := range payloads {
			data[units[i].Key] = raw
		}
		return assemble(c.opts, data)
	})
}

// RowHammer returns the session's Alg. 1 study, computing it on first use.
func (c *Campaign) RowHammer(ctx context.Context) (RowHammerStudy, error) {
	return shardedStudy(ctx, c, StudyRowHammer, &c.rowhammer, experiments.AssembleRowHammerStudy)
}

// TRCD returns the session's Alg. 2 study, computing it on first use.
func (c *Campaign) TRCD(ctx context.Context) (TRCDStudy, error) {
	return shardedStudy(ctx, c, StudyTRCD, &c.trcd, experiments.AssembleTRCDStudy)
}

// Retention returns the session's Alg. 3 study, computing it on first use.
func (c *Campaign) Retention(ctx context.Context) (RetentionStudy, error) {
	return shardedStudy(ctx, c, StudyRetention, &c.retention, experiments.AssembleRetentionStudy)
}

// SpiceWaveforms returns the session's transient traces, computing them on
// first use. The waveform study is not sharded: it is one cheap
// deterministic simulation, so every process (including a merge renderer)
// computes it locally.
func (c *Campaign) SpiceWaveforms(ctx context.Context) (Waveforms, error) {
	return c.waveforms.get(func() (experiments.Waveforms, error) {
		c.countRun(StudyWaveforms)
		return experiments.RunWaveforms(ctx)
	})
}

// SpiceMC returns the session's Monte-Carlo study, computing it on first use.
func (c *Campaign) SpiceMC(ctx context.Context) (MCStudy, error) {
	return shardedStudy(ctx, c, StudySpiceMC, &c.spiceMC, experiments.AssembleMCStudy)
}

// WordAnalysis returns the session's Fig. 11 study, computing it on first
// use.
func (c *Campaign) WordAnalysis(ctx context.Context) (WordAnalysis, error) {
	return shardedStudy(ctx, c, StudyWordAnalysis, &c.words, experiments.AssembleWordAnalysis)
}

// CV returns the session's §4.6 variation study, computing it on first use.
func (c *Campaign) CV(ctx context.Context) (CVStudy, error) {
	return shardedStudy(ctx, c, StudyCV, &c.cv, experiments.AssembleCVStudy)
}

// Run renders one experiment by id into enc, reusing every study already
// computed in this session.
func (c *Campaign) Run(ctx context.Context, id string, enc Encoder) error {
	e, err := LookupExperiment(id)
	if err != nil {
		return err
	}
	return e.Run(ctx, c, enc)
}

// moduleSweepFor returns the Alg. 1 sweep of one module out of the session's
// shared RowHammer study. The target is always covered: with ModuleNames
// empty the study spans the full catalog, and otherwise FirstModule comes
// from the validated selection.
func (c *Campaign) moduleSweepFor(ctx context.Context, name string) (ModuleSweep, error) {
	st, err := c.RowHammer(ctx)
	if err != nil {
		return ModuleSweep{}, err
	}
	for _, sw := range st.Sweeps {
		if sw.Profile.Name == name {
			return sw, nil
		}
	}
	return ModuleSweep{}, fmt.Errorf("rhvpp: module %s not covered by the campaign's RowHammer study", name)
}

// registry lists every experiment in the paper's presentation order.
var registry = []Experiment{
	{ID: "table1", Title: "Summary of the tested DDR4 DRAM chips", Section: "§4.1, Table 1",
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			return experiments.Table1(enc)
		}},
	{ID: "table2", Title: "Key parameters used in SPICE simulations", Section: "§4.5, Table 2",
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			return experiments.Table2(enc)
		}},
	{ID: "cv", Title: "Coefficient of variation across repeated measurements", Section: "§4.6",
		Studies: []Study{StudyCV},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.CV(ctx)
			if err != nil {
				return err
			}
			return st.Render(enc)
		}},
	{ID: "table3", Title: "Module RowHammer characteristics under VPP scaling", Section: "§5, Table 3",
		Studies: []Study{StudyRowHammer},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.RowHammer(ctx)
			if err != nil {
				return err
			}
			return enc.Table(st.Table3())
		}},
	{ID: "fig3", Title: "Normalized RowHammer BER vs wordline voltage", Section: "§5.1, Fig. 3",
		Studies: []Study{StudyRowHammer},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.RowHammer(ctx)
			if err != nil {
				return err
			}
			return st.RenderFig3(enc)
		}},
	{ID: "fig4", Title: "Normalized RowHammer BER distribution at VPPmin", Section: "§5.1, Fig. 4",
		Studies: []Study{StudyRowHammer},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.RowHammer(ctx)
			if err != nil {
				return err
			}
			return st.RenderFig4(enc)
		}},
	{ID: "fig5", Title: "Normalized HCfirst vs wordline voltage", Section: "§5.2, Fig. 5",
		Studies: []Study{StudyRowHammer},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.RowHammer(ctx)
			if err != nil {
				return err
			}
			return st.RenderFig5(enc)
		}},
	{ID: "fig6", Title: "Normalized HCfirst distribution at VPPmin", Section: "§5.2, Fig. 6",
		Studies: []Study{StudyRowHammer},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.RowHammer(ctx)
			if err != nil {
				return err
			}
			return st.RenderFig6(enc)
		}},
	{ID: "summary", Title: "Row-level RowHammer aggregates at VPPmin", Section: "§5",
		Studies: []Study{StudyRowHammer},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.RowHammer(ctx)
			if err != nil {
				return err
			}
			return st.Section5Aggregates().Render(enc)
		}},
	{ID: "fig7", Title: "Minimum reliable tRCD vs wordline voltage", Section: "§6.1, Fig. 7",
		Studies: []Study{StudyTRCD},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.TRCD(ctx)
			if err != nil {
				return err
			}
			return st.RenderFig7(enc)
		}},
	{ID: "guardband", Title: "Activation-latency guardband summary", Section: "§6.1",
		Studies: []Study{StudyTRCD},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.TRCD(ctx)
			if err != nil {
				return err
			}
			return st.Summary().Render(enc)
		}},
	{ID: "fig8a", Title: "Bitline voltage during row activation (SPICE)", Section: "§6.2, Fig. 8a",
		Studies: []Study{StudyWaveforms},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			wf, err := c.SpiceWaveforms(ctx)
			if err != nil {
				return err
			}
			return wf.RenderFig8a(enc)
		}},
	{ID: "fig8b", Title: "tRCDmin distribution under process variation (SPICE MC)", Section: "§6.2, Fig. 8b",
		Studies: []Study{StudySpiceMC},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.SpiceMC(ctx)
			if err != nil {
				return err
			}
			return st.RenderFig8b(enc)
		}},
	{ID: "fig9a", Title: "Cell voltage during charge restoration (SPICE)", Section: "§6.2, Fig. 9a",
		Studies: []Study{StudyWaveforms},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			wf, err := c.SpiceWaveforms(ctx)
			if err != nil {
				return err
			}
			return wf.RenderFig9a(enc)
		}},
	{ID: "fig9b", Title: "tRASmin distribution under process variation (SPICE MC)", Section: "§6.2, Fig. 9b",
		Studies: []Study{StudySpiceMC},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.SpiceMC(ctx)
			if err != nil {
				return err
			}
			return st.RenderFig9b(enc)
		}},
	{ID: "fig10a", Title: "Retention BER vs refresh window and voltage", Section: "§6.3, Fig. 10a",
		Studies: []Study{StudyRetention},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.Retention(ctx)
			if err != nil {
				return err
			}
			return st.RenderFig10a(enc)
		}},
	{ID: "fig10b", Title: "Retention BER at tREFW = 4 s", Section: "§6.3, Fig. 10b",
		Studies: []Study{StudyRetention},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := c.Retention(ctx)
			if err != nil {
				return err
			}
			return st.RenderFig10b(enc)
		}},
	{ID: "fig11", Title: "Erroneous words per row at VPPmin", Section: "§6.3, Fig. 11",
		Studies: []Study{StudyWordAnalysis},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			wa, err := c.WordAnalysis(ctx)
			if err != nil {
				return err
			}
			return wa.RenderFig11(enc)
		}},
	{ID: "abl-attacks", Title: "Ablation: single- vs double- vs many-sided attacks", Section: "§4.2",
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			cmp, err := experiments.RunAttackComparison(ctx, c.opts, c.opts.FirstModule("B0"), 60000)
			if err != nil {
				return err
			}
			return cmp.Render(enc)
		}},
	{ID: "abl-wcdp", Title: "Ablation: worst-case data pattern stability across VPP", Section: "§4.2, footnote 9",
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := experiments.RunWCDPStability(ctx, c.opts, c.opts.FirstModule("C0"))
			if err != nil {
				return err
			}
			return st.Render(enc)
		}},
	{ID: "abl-trr", Title: "Ablation: TRR interaction with refresh starvation", Section: "§4.2",
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			ab, err := experiments.RunTRRAblation(ctx, c.opts, c.opts.FirstModule("B0"), 64000)
			if err != nil {
				return err
			}
			return ab.Render(enc)
		}},
	{ID: "abl-defense", Title: "Ablation: RowHammer defense cost vs VPP", Section: "§8",
		Studies: []Study{StudyRowHammer},
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			sw, err := c.moduleSweepFor(ctx, c.opts.FirstModule("B3"))
			if err != nil {
				return err
			}
			dc, err := experiments.RunDefenseCost(sw)
			if err != nil {
				return err
			}
			return dc.Render(enc)
		}},
	{ID: "abl-secded", Title: "Ablation: SECDED coverage of retention failures", Section: "§6.3, Obsv. 14",
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			cov, err := experiments.RunSECDEDCoverage(ctx, c.opts, c.opts.FirstModule("B6"))
			if err != nil {
				return err
			}
			return cov.Render(enc)
		}},
	{ID: "ext-temp", Title: "Extension: VPP x temperature x RowHammer interaction", Section: "§7, future work",
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			ti, err := experiments.RunTempInteraction(ctx, c.opts, c.opts.FirstModule("B3"), nil)
			if err != nil {
				return err
			}
			return ti.Render(enc)
		}},
	{ID: "ext-attacks", Title: "Extension: attack shapes vs in-DRAM defenses", Section: "§8",
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			sd, err := experiments.RunDefenseShowdown(ctx, c.opts, c.opts.FirstModule("B0"), 400_000, 4000)
			if err != nil {
				return err
			}
			return sd.Render(enc)
		}},
	{ID: "ext-retfine", Title: "Extension: fine-grained per-row refresh windows", Section: "§6.3, footnote 14",
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			st, err := experiments.RunFineRefreshStudy(ctx, c.opts, c.opts.FirstModule("B6"))
			if err != nil {
				return err
			}
			return st.Render(enc)
		}},
	{ID: "ext-power", Title: "Extension: VPP rail electrical cost vs security benefit", Section: "§8",
		run: func(ctx context.Context, c *Campaign, enc Encoder) error {
			ps, err := experiments.RunPowerStudy(ctx, c.opts, c.opts.FirstModule("B3"))
			if err != nil {
				return err
			}
			return ps.Render(enc)
		}},
}

// registryIndex maps ids to registry positions.
var registryIndex = func() map[string]int {
	idx := make(map[string]int, len(registry))
	for i, e := range registry {
		idx[e.ID] = i
	}
	return idx
}()

// Experiments returns every experiment descriptor in the paper's
// presentation order. The returned slice is a copy.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ExperimentByID looks a descriptor up by id.
func ExperimentByID(id string) (Experiment, bool) {
	i, ok := registryIndex[id]
	if !ok {
		return Experiment{}, false
	}
	return registry[i], true
}

// ExperimentNames lists the runnable experiment ids in sorted order.
func ExperimentNames() []string {
	names := make([]string, 0, len(registry))
	for _, e := range registry {
		names = append(names, e.ID)
	}
	sort.Strings(names)
	return names
}

// RunExperiment regenerates one of the paper's tables or figures (or an
// ablation) by id, writing text output to w.
//
// It is a back-compat convenience over a throwaway Campaign; callers
// rendering more than one experiment should hold a Campaign so the shared
// studies run once.
func RunExperiment(name string, o Options, w io.Writer) error {
	c, err := NewCampaign(o)
	if err != nil {
		return err
	}
	return c.Run(context.Background(), name, NewTextEncoder(w))
}
