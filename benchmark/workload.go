package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/dramstudy/rhvpp"
)

// nproc is the worker budget every workload runs at: campaign Jobs, and the
// number of serve-mixed clients.
var nproc = runtime.GOMAXPROCS(0)

// config is one benchmark invocation of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
	// root is the repository root: testdata/golden is read from there.
	root string
	// setups is how many times set-up repeats; setup_s is their median.
	setups int
	// smoke shrinks every workload to the golden preset's scale.
	smoke bool
}

func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts correctness checks; serve-mixed clients check concurrently.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "rhvpp-bench: check failed: "+format+"\n", args...)
	}
}

// workload is one set of inputs the benchmark runs. Batch workloads render
// ids from a fresh Campaign per iteration; serve-mixed drives a server.
type workload struct {
	name string
	// options builds the campaign options at a seed: the studied campaign of
	// a batch workload, the server's base campaign for serve-mixed.
	options func(seed uint64) rhvpp.Options
	// ids lists what one batch iteration renders, in order.
	ids   []string
	serve bool
}

// seeded returns o at the workload seed and the worker budget.
func seeded(o rhvpp.Options, seed uint64) rhvpp.Options {
	o.Seed, o.Jobs = seed, nproc
	return o
}

// golden is the golden preset at its own seed and the worker budget.
func golden() rhvpp.Options { return seeded(rhvpp.GoldenOptions(), rhvpp.GoldenOptions().Seed) }

var workloads = []workload{
	{
		name:    "campaign-default",
		options: func(seed uint64) rhvpp.Options { return seeded(rhvpp.DefaultOptions(), seed) },
		ids:     allIDs(),
	},
	{
		name: "characterize-paper",
		options: func(seed uint64) rhvpp.Options {
			o := seeded(rhvpp.PaperOptions(), seed)
			o.ModuleNames = []string{"A3", "B3", "B6", "C0"}
			o.Chunks, o.RowsPerChunk = 1, 2
			return o
		},
		ids: []string{"table3", "fig3", "fig4", "fig5", "fig6", "fig7", "guardband", "fig10a", "fig10b", "fig11", "cv"},
	},
	{
		name: "spice-mc",
		options: func(seed uint64) rhvpp.Options {
			o := seeded(rhvpp.DefaultOptions(), seed)
			o.SpiceMCRuns = 2000
			return o
		},
		ids: []string{"fig8b", "fig9b"},
	},
	{
		name: "serve-mixed",
		// The workload seed shapes the request mix, not the base campaign.
		options: func(uint64) rhvpp.Options { return golden() },
		serve:   true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, workloadNames())
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func allIDs() []string {
	var ids []string
	for _, e := range rhvpp.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// optionsFor resolves a workload's options, shrunk to the golden preset's
// scale in smoke runs.
func (w workload) optionsFor(cfg config) rhvpp.Options {
	if cfg.smoke && !w.serve {
		return seeded(rhvpp.GoldenOptions(), cfg.seed)
	}
	return w.options(cfg.seed)
}

// env is what set-up leaves for the timed phase.
type env struct {
	// golden is the memoized golden-preset campaign the correctness gate
	// rendered; goldens are the committed renderings it matched.
	golden  *rhvpp.Campaign
	goldens map[rhvpp.Format][]byte
	// fix, mix and bc are serve-mixed's warm server, request list and
	// reply checks.
	fix *fixture
	mix *requestMix
	bc  *bodyCheck
}

func (e *env) close() error {
	if e == nil || e.fix == nil {
		return nil
	}
	return e.fix.close()
}

var formatExt = map[rhvpp.Format]string{rhvpp.FormatText: "txt", rhvpp.FormatJSON: "json", rhvpp.FormatCSV: "csv"}

// setup checks the golden preset against testdata/golden in every format and
// prepares the workload: serve-mixed computes its hot set into a fresh store
// through a throwaway server and starts the timed server on it.
func (w workload) setup(ctx context.Context, cfg config, t *tally) (*env, error) {
	c, err := rhvpp.NewCampaign(golden())
	if err != nil {
		return nil, err
	}
	e := &env{golden: c, goldens: make(map[rhvpp.Format][]byte)}
	for _, f := range rhvpp.Formats() {
		want, err := os.ReadFile(filepath.Join(cfg.root, "testdata", "golden", "all."+formatExt[f]))
		if err != nil {
			return nil, fmt.Errorf("golden gate: %w", err)
		}
		got, err := render(ctx, c, allIDs(), f, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("golden gate: %w", err)
		}
		t.check(bytes.Equal(got, want), "golden preset %s rendering differs from testdata/golden", f)
		e.goldens[f] = want
	}
	if w.serve {
		n := serveSessions
		if cfg.smoke {
			n = smokeSessions
		}
		base := w.optionsFor(cfg)
		e.mix = newRequestMix(cfg.seed, n)
		e.bc = newBodyCheck(t, base, e.goldens)
		if e.fix, err = warmFixture(ctx, base, e.mix.hot); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// render renders ids through c with the CLI's "== id ==" banners into one
// stream. With a recorder it first calls each id's studies inside their own
// spans, so study and render time separate; the bytes are the same.
func render(ctx context.Context, c *rhvpp.Campaign, ids []string, f rhvpp.Format, rec *recorder, trace int) ([]byte, error) {
	var buf bytes.Buffer
	err := rec.do("op", 0, trace, func(op int) error {
		for _, id := range ids {
			e, err := rhvpp.LookupExperiment(id)
			if err != nil {
				return err
			}
			if rec != nil {
				for _, s := range e.Studies {
					if err := rec.do("study."+string(s), op, trace, func(int) error { return runStudy(ctx, c, s) }); err != nil {
						return err
					}
				}
			}
			fmt.Fprintf(&buf, "== %s ==\n", id)
			kind := "render.memo"
			if len(e.Studies) == 0 {
				kind = "render.adhoc"
			}
			err = rec.do(kind, op, trace, func(int) error {
				enc, err := rhvpp.NewEncoder(f, &buf)
				if err != nil {
					return err
				}
				return c.Run(ctx, id, enc)
			})
			if err != nil {
				return fmt.Errorf("experiment %s: %w", id, err)
			}
		}
		return nil
	})
	return buf.Bytes(), err
}

var studies = []rhvpp.Study{
	rhvpp.StudyRowHammer, rhvpp.StudyTRCD, rhvpp.StudyRetention, rhvpp.StudyWaveforms,
	rhvpp.StudySpiceMC, rhvpp.StudyWordAnalysis, rhvpp.StudyCV,
}

// runStudy computes (or fetches the memoized) study s of campaign c.
func runStudy(ctx context.Context, c *rhvpp.Campaign, s rhvpp.Study) error {
	var err error
	switch s {
	case rhvpp.StudyRowHammer:
		_, err = c.RowHammer(ctx)
	case rhvpp.StudyTRCD:
		_, err = c.TRCD(ctx)
	case rhvpp.StudyRetention:
		_, err = c.Retention(ctx)
	case rhvpp.StudyWaveforms:
		_, err = c.SpiceWaveforms(ctx)
	case rhvpp.StudySpiceMC:
		_, err = c.SpiceMC(ctx)
	case rhvpp.StudyWordAnalysis:
		_, err = c.WordAnalysis(ctx)
	case rhvpp.StudyCV:
		_, err = c.CV(ctx)
	default:
		err = fmt.Errorf("unknown study %q", s)
	}
	return err
}

// outputCheck pins a batch workload's output: every iteration of a run must
// render the same bytes, and at full scale those bytes must hash to the
// committed pin for the seed, where one exists.
type outputCheck struct {
	t    *tally
	name string
	pin  string
	ref  string
}

func newOutputCheck(t *tally, cfg config) *outputCheck {
	oc := &outputCheck{t: t, name: cfg.workload}
	if !cfg.smoke {
		oc.pin = pinFor(cfg.workload, cfg.seed)
	}
	return oc
}

func (oc *outputCheck) check(out []byte) {
	sum := sha256.Sum256(out)
	h := hex.EncodeToString(sum[:])
	if oc.ref == "" {
		oc.ref = h
		if oc.pin != "" {
			oc.t.check(h == oc.pin, "%s output sha256 %s, pinned %s", oc.name, h, oc.pin)
		}
		return
	}
	oc.t.check(h == oc.ref, "%s output sha256 %s differs from the run's first iteration %s", oc.name, h, oc.ref)
}

// timeOps runs op back to back (always at least once) while the next call
// would likely end within half a call of the budget, and returns each call's
// wall time.
func timeOps(ctx context.Context, budget time.Duration, op func(i int) error) ([]time.Duration, error) {
	var ops []time.Duration
	t0 := time.Now()
	for i := 0; ; i++ {
		s := time.Now()
		if err := op(i); err != nil {
			return nil, err
		}
		ops = append(ops, time.Since(s))
		if time.Since(t0)+medianDur(ops)/2 > budget || ctx.Err() != nil {
			return ops, ctx.Err()
		}
	}
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(millis(ds)) * float64(time.Millisecond))
}

// peakRSSMB is the process's peak resident set. It moves with GC timing from
// run to run, so it is a per-layer metric only.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// retainedHeapMB is the heap still reachable after a full collection. Taken
// right after set-up it is what the process holds before any operation: its
// global tables and caches, and the set-up state (the memoized golden
// campaign; serve-mixed's warm server).
func retainedHeapMB() float64 {
	// The second collection frees what sync.Pool victim caches kept alive
	// through the first.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// run executes one workload: set-up (repeated cfg.setups times), then the
// timed phase; a traced run adds the per-layer breakdown.
func run(ctx context.Context, cfg config) (*result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	t := &tally{}
	var e *env
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if err := e.close(); err != nil {
			return nil, err
		}
		s := time.Now()
		if e, err = w.setup(ctx, cfg, t); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(s).Seconds())
	}
	defer e.close()

	m := make(map[string]metric)
	if cfg.traced {
		err = w.traced(ctx, cfg, e, t, m)
	} else {
		heap := retainedHeapMB()
		var ops []time.Duration
		if w.serve {
			var tr traffic
			tr, err = serveTraffic(ctx, e, cfg.budget(), nil)
			ops = tr.sessions
			reportTraffic(tr.outs)
		} else {
			ops, err = timeOps(ctx, cfg.budget(), w.iteration(ctx, cfg, newOutputCheck(t, cfg)))
		}
		m["setup_s"] = metric{median(setups), "s"}
		m["op_ms"] = metric{median(millis(ops)), "ms"}
		m["setup_heap_mb"] = metric{heap, "MB"}
	}
	if err != nil {
		return nil, err
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// iteration returns one batch iteration: a fresh Campaign renders the
// workload's ids as text, exactly as `rhvpp -exp` prints them, and oc checks
// the bytes.
func (w workload) iteration(ctx context.Context, cfg config, oc *outputCheck) func(int) error {
	o := w.optionsFor(cfg)
	return func(int) error {
		c, err := rhvpp.NewCampaign(o)
		if err != nil {
			return err
		}
		out, err := render(ctx, c, w.ids, rhvpp.FormatText, nil, 0)
		if err != nil {
			return err
		}
		oc.check(out)
		return nil
	}
}
