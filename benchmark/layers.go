package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/experiments"
	"github.com/dramstudy/rhvpp/internal/infra"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/rng"
	"github.com/dramstudy/rhvpp/internal/server"
	"github.com/dramstudy/rhvpp/internal/spice"
)

// traced is the traced run. An untraced phase gives the reference the
// tracing overhead is measured against; the traced phase records spans, a
// CPU profile and allocation counters; then every planned work unit is
// replayed alone and each layer is probed on the workload's options.
func (w workload) traced(ctx context.Context, cfg config, e *env, t *tally, m map[string]metric) error {
	half := cfg.budget() / 2
	rec := newRecorder()
	profPath := strings.TrimSuffix(cfg.traceOut, filepath.Ext(cfg.traceOut)) + ".cpu.pprof"
	var untraced, traced []time.Duration
	var before, after runtime.MemStats
	var camp *rhvpp.Campaign // the campaign whose units are replayed
	var replay []rhvpp.Study
	var mc []spice.MCResult
	// observed counts the units each study of the traced batch iteration
	// reported executing.
	var observed map[string]int

	if w.serve {
		a, err := serveTraffic(ctx, e, half, nil)
		if err != nil {
			return err
		}
		stop, err := startProfile(profPath)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&before)
		b, err := serveTraffic(ctx, e, half, rec)
		runtime.ReadMemStats(&after)
		if serr := stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		untraced, traced = a.sessions, b.sessions
		outs := append(a.outs, b.outs...)
		reportTraffic(outs)
		serverMetrics(m, e.fix.srv.Stats(), outs)
		// A cold request computes the base campaign's whole plan.
		camp, replay = e.golden, rhvpp.ShardableStudies()
		st, err := e.golden.SpiceMC(ctx)
		if err != nil {
			return err
		}
		mc = st.Results
	} else {
		oc := newOutputCheck(t, cfg)
		var err error
		if untraced, err = timeOps(ctx, half, w.iteration(ctx, cfg, oc)); err != nil {
			return err
		}
		if camp, err = rhvpp.NewCampaign(w.optionsFor(cfg)); err != nil {
			return err
		}
		var mu sync.Mutex
		observed = make(map[string]int)
		camp.WithProgress(func(ev rhvpp.ProgressEvent) {
			if ev.Key != "" {
				mu.Lock()
				observed[ev.Study]++
				mu.Unlock()
			}
		})
		stop, err := startProfile(profPath)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&before)
		s := time.Now()
		out, err := render(ctx, camp, w.ids, rhvpp.FormatText, rec, 1)
		traced = []time.Duration{time.Since(s)}
		runtime.ReadMemStats(&after)
		if serr := stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		oc.check(out)
		runs := camp.StudyRuns()
		for _, s := range rhvpp.ShardableStudies() {
			if runs[s] > 0 {
				replay = append(replay, s)
			}
		}
		if runs[rhvpp.StudySpiceMC] > 0 {
			st, err := camp.SpiceMC(ctx)
			if err != nil {
				return err
			}
			mc = st.Results
		}
		// Batch workloads send no requests: the server layer is measured on
		// a fixed golden-preset sequence instead.
		outs, st, err := serverProbe(ctx, e, t)
		if err != nil {
			return err
		}
		serverMetrics(m, st, outs)
	}

	n := float64(len(traced))
	m["trace.op_ms"] = metric{median(millis(traced)), "ms"}
	m["trace_overhead_frac"] = metric{median(millis(traced))/median(millis(untraced)) - 1, "frac"}
	m["go.alloc_mb_per_op"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / n, "MB"}
	m["go.gc_cycles_per_op"] = metric{float64(after.NumGC-before.NumGC) / n, "count"}
	m["go.gc_pause_ms_per_op"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / n, "ms"}
	m["go.peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	spans := rec.snapshot()
	studyTime := breakdown(spans, m)
	if err := replayUnits(ctx, camp, replay, observed, studyTime, t, m); err != nil {
		return err
	}
	mcFractions(mc, m)
	probes := []func() error{
		func() error { return probeTestbed(ctx, camp.Options(), m) },
		func() error { probeRNG(camp.Options().Seed, m); return nil },
		func() error { return probeSpice(m) },
		func() error { return probeReport(ctx, e.golden, m) },
		func() error { return probeArtifact(ctx, e.golden, m) },
	}
	for _, p := range probes {
		if err := p(); err != nil {
			return err
		}
	}
	shares, err := profileShares(ctx, profPath)
	if err != nil {
		return err
	}
	for _, g := range profGroups {
		m["prof.self_frac."+g] = metric{shares[g], "frac"}
	}
	return writeSpans(cfg.traceOut, cfg.workload, cfg.seed, spans)
}

// breakdown reports how the traced operations' time splits across the
// spans inside them, and returns the total time per span name.
func breakdown(spans []span, m map[string]metric) map[string]time.Duration {
	var total, covered time.Duration
	byName := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.dur()
			covered += s.dur() - selfTime(spans, s.ID)
		} else {
			byName[s.Name] += s.dur()
		}
	}
	frac := func(d time.Duration) metric {
		if total == 0 {
			return metric{0, "frac"}
		}
		return metric{float64(d) / float64(total), "frac"}
	}
	m["trace.span_cover_frac"] = frac(covered)
	for _, s := range studies {
		m["study."+string(s)+".frac"] = frac(byName["study."+string(s)])
	}
	m["render.memo.frac"] = frac(byName["render.memo"])
	m["render.adhoc.frac"] = frac(byName["render.adhoc"])
	return byName
}

// replayUnits executes every unit Campaign.Plan lists for each study alone
// at Jobs=1. It checks the replayed count against the units the traced
// iteration reported executing, and reports each study's pool efficiency:
// replayed unit time over the study's span times the worker budget.
func replayUnits(ctx context.Context, c *rhvpp.Campaign, ss []rhvpp.Study, observed map[string]int,
	studyTime map[string]time.Duration, t *tally, m map[string]metric) error {
	serial := c.Options()
	serial.Jobs = 1
	replayed := make(map[rhvpp.Study][]time.Duration)
	for _, s := range ss {
		units, err := c.Plan(s)
		if err != nil {
			return err
		}
		for _, u := range units {
			d, err := timed(func() error {
				_, err := experiments.RunUnits(ctx, serial, string(s), []experiments.UnitRef{u})
				return err
			})
			if err != nil {
				return fmt.Errorf("replaying %s unit %s: %w", s, u.Key, err)
			}
			replayed[s] = append(replayed[s], d)
		}
		if observed != nil {
			n := observed[string(s)]
			t.check(n == len(units), "%s: the traced iteration executed %d units, Campaign.Plan lists %d", s, n, len(units))
		}
	}
	var all []float64
	for _, s := range rhvpp.ShardableStudies() {
		ds := replayed[s]
		m["experiments.unit."+string(s)+".count"] = metric{float64(len(ds)), "count"}
		eff := 0.0
		if span := studyTime["study."+string(s)]; span > 0 {
			var sum time.Duration
			for _, d := range ds {
				sum += d
			}
			eff = float64(sum) / (float64(span) * float64(nproc))
		}
		m["experiments.pool_eff."+string(s)] = metric{eff, "frac"}
		all = append(all, millis(ds)...)
	}
	m["experiments.unit.p50_ms"] = metric{median(all), "ms"}
	m["experiments.unit.max_ms"] = metric{slices.Max(append(all, 0)), "ms"}
	return nil
}

// mcFractions reports the Monte-Carlo runs that yielded no useful
// measurement, as shares of all runs; zero when the workload runs no MC.
func mcFractions(results []spice.MCResult, m map[string]metric) {
	var runs, noconv, unreliable, unrestored int
	for _, r := range results {
		runs += r.Runs
		noconv += r.NoConverge
		unreliable += r.Unreliable
		unrestored += r.Unrestored
	}
	share := func(k int) metric {
		if runs == 0 {
			return metric{0, "frac"}
		}
		return metric{float64(k) / float64(runs), "frac"}
	}
	m["spice.noconverge_frac"] = share(noconv)
	m["spice.unreliable_frac"] = share(unreliable)
	m["spice.unrestored_frac"] = share(unrestored)
}

func timed(fn func() error) (time.Duration, error) {
	s := time.Now()
	err := fn()
	return time.Since(s), err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeTestbed times the SoftMC controller and the Alg. 1-3 tester on the
// workload's first module: row operations at nominal VPP, then the
// characterization calls on one sampled row at every swept level, as the
// studies issue them.
func probeTestbed(ctx context.Context, o rhvpp.Options, m map[string]metric) error {
	prof, ok := rhvpp.ModuleByName(o.FirstModule(rhvpp.Modules()[0].Name))
	if !ok {
		return fmt.Errorf("probe: unknown module in %v", o.ModuleNames)
	}
	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	tester := core.NewTester(tb.Controller, o.Config).WithContext(ctx)
	ctrl, bank := tb.Controller, o.Config.Bank
	var rows []int
	for _, r := range core.SelectRows(o.Geometry, o.Chunks, o.RowsPerChunk) {
		if _, _, err := tester.AggressorsFor(r); err == nil && len(rows) < 2 {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("probe: module %s has no testable row", prof.Name)
	}

	var initUS, hammerUS, readUS []float64
	for rep := 0; rep < 25; rep++ {
		for _, row := range rows {
			lo, hi, err := tester.AggressorsFor(row)
			if err != nil {
				return err
			}
			for _, step := range []struct {
				into *[]float64
				fn   func() error
			}{
				{&initUS, func() error { return ctrl.InitializeRow(bank, row, 0x55) }},
				{&hammerUS, func() error { return ctrl.HammerDoubleSided(bank, lo, hi, o.Config.RefHC) }},
				{&readUS, func() error { _, err := ctrl.ReadRow(bank, row); return err }},
			} {
				d, err := timed(step.fn)
				if err != nil {
					return fmt.Errorf("probe: softmc: %w", err)
				}
				*step.into = append(*step.into, us(d))
			}
		}
	}
	m["softmc.init_row_us"] = metric{median(initUS), "us"}
	m["softmc.hammer_ds_us"] = metric{median(hammerUS), "us"}
	m["softmc.read_row_us"] = metric{median(readUS), "us"}

	row := rows[0]
	if err := tb.SetVPP(physics.VPPNominal); err != nil {
		return err
	}
	var wcdp, trcdWCDP pattern.Kind
	dSel, err := timed(func() (err error) { wcdp, err = tester.SelectWCDP(row); return err })
	if err == nil {
		trcdWCDP, err = tester.SelectTRCDWCDP(row)
	}
	if err != nil {
		return fmt.Errorf("probe: core: %w", err)
	}
	var berMS, charMS, trcdMS, simMS, hostPerSim []float64
	for _, v := range sweptLevels(prof, o.VPPStride) {
		if err := tb.SetVPP(v); err != nil {
			return err
		}
		dBER, err := timed(func() error { _, err := tester.MeasureBER(row, wcdp, o.Config.RefHC); return err })
		if err != nil {
			return fmt.Errorf("probe: core at %.1fV: %w", v, err)
		}
		sim0 := ctrl.Now()
		dChar, err := timed(func() error { _, err := tester.CharacterizeRow(row, wcdp); return err })
		if err != nil {
			return fmt.Errorf("probe: core at %.1fV: %w", v, err)
		}
		sim := ctrl.Now() - sim0
		dTRCD, err := timed(func() error { _, err := tester.CharacterizeRowTRCD(row, trcdWCDP); return err })
		if err != nil {
			return fmt.Errorf("probe: core at %.1fV: %w", v, err)
		}
		berMS, charMS, trcdMS = append(berMS, ms(dBER)), append(charMS, ms(dChar)), append(trcdMS, ms(dTRCD))
		simMS = append(simMS, float64(sim)/float64(dram.PSPerMS))
		hostPerSim = append(hostPerSim, float64(dChar)/(float64(sim)/float64(dram.PSPerNS)/1e3))
	}
	var retMS []float64
	if err := tb.SetVPP(physics.VPPNominal); err != nil {
		return err
	}
	if err := tb.SetTemperature(physics.RetentionTestTempC); err != nil {
		return err
	}
	for _, v := range o.RetentionVPPLevels {
		if v < prof.VPPMin-1e-9 {
			continue
		}
		if err := tb.SetVPP(v); err != nil {
			return err
		}
		d, err := timed(func() error { _, err := tester.RetentionSweep(row, pattern.CheckerAA); return err })
		if err != nil {
			return fmt.Errorf("probe: retention at %.1fV: %w", v, err)
		}
		retMS = append(retMS, ms(d))
	}
	m["core.select_wcdp_ms"] = metric{ms(dSel), "ms"}
	m["core.measure_ber_ms"] = metric{median(berMS), "ms"}
	m["core.characterize_row_ms"] = metric{median(charMS), "ms"}
	m["core.trcd_min_ms"] = metric{median(trcdMS), "ms"}
	m["core.retention_sweep_ms"] = metric{median(retMS), "ms"}
	// Simulated time is a property of the model, not of the host: a change
	// that only speeds up the simulator must leave it unchanged.
	m["softmc.sim_ms_per_row"] = metric{median(simMS), "sim_ms"}
	m["softmc.host_ns_per_sim_us"] = metric{median(hostPerSim), "ns"}
	return nil
}

// sweptLevels are the VPP levels a study sweeps for the module: every
// stride-th 0.1 V step plus VPPmin.
func sweptLevels(prof rhvpp.ModuleProfile, stride int) []float64 {
	full := prof.VPPLevels()
	stride = max(stride, 1)
	var out []float64
	for i, v := range full {
		if i%stride == 0 || i == len(full)-1 {
			out = append(out, v)
		}
	}
	return out
}

var deriveSink *rng.Stream

// probeRNG times Stream.Derive with the label shape of the read path's
// per-column tRCD draw, and counts its allocations.
func probeRNG(seed uint64, m map[string]metric) {
	s := rng.New(seed)
	const batch = 20000
	var per []float64
	for b := 0; b < 9; b++ {
		d, _ := timed(func() error {
			for i := 0; i < batch; i++ {
				deriveSink = s.Derive("trcdcol", 0, 4096+i&1023, i&127)
			}
			return nil
		})
		per = append(per, float64(d)/batch)
	}
	m["rng.derive_ns"] = metric{median(per), "ns"}
	m["rng.derive_allocs"] = metric{testing.AllocsPerRun(1000, func() {
		deriveSink = s.Derive("trcdcol", 0, 4711, 17)
	}), "count"}
}

// probeSpice times one activation simulation at nominal and at a reduced
// wordline voltage.
func probeSpice(m map[string]metric) error {
	for _, lv := range []struct {
		name string
		vpp  float64
	}{{"v25", 2.5}, {"v17", 1.7}} {
		p := spice.DefaultCellParams(lv.vpp)
		var per []float64
		for i := 0; i < 30; i++ {
			d, err := timed(func() error { _, err := spice.SimulateActivation(p, nil); return err })
			if err != nil {
				return fmt.Errorf("probe: spice at %gV: %w", lv.vpp, err)
			}
			per = append(per, us(d))
		}
		m["spice.activation_us."+lv.name] = metric{median(per), "us"}
	}
	return nil
}

// probeReport times rendering every id of the memoized golden campaign.
func probeReport(ctx context.Context, golden *rhvpp.Campaign, m map[string]metric) error {
	for _, f := range rhvpp.Formats() {
		var per []float64
		for i := 0; i < 3; i++ {
			d, err := timed(func() error { _, err := render(ctx, golden, allIDs(), f, nil, 0); return err })
			if err != nil {
				return err
			}
			per = append(per, ms(d))
		}
		m["report.render_all_ms."+string(f)] = metric{median(per), "ms"}
	}
	return nil
}

// probeArtifact times the golden campaign's single-shard artifact through
// encode, decode, merge and an artifact store.
func probeArtifact(ctx context.Context, golden *rhvpp.Campaign, m map[string]metric) error {
	units, err := golden.Plan()
	if err != nil {
		return err
	}
	o := golden.Options()
	art, err := rhvpp.RunShard(ctx, o, 0, 1, units)
	if err != nil {
		return err
	}
	fp, err := rhvpp.OptionsFingerprint(o)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "rhvpp-bench-artifact-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := rhvpp.OpenArtifactStore(dir)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	steps := []struct {
		name string
		fn   func() error
	}{
		{"encode_ms", func() error { buf.Reset(); return rhvpp.EncodeArtifact(&buf, art) }},
		{"decode_ms", func() error { _, err := rhvpp.DecodeArtifact(bytes.NewReader(buf.Bytes())); return err }},
		{"merge_ms", func() error { _, err := rhvpp.MergeArtifacts(art); return err }},
		{"store_put_ms", func() error { return st.Put(fp, art) }},
		{"store_get_ms", func() error { _, err := st.Get(fp); return err }},
	}
	for _, step := range steps {
		var per []float64
		for i := 0; i < 5; i++ {
			d, err := timed(step.fn)
			if err != nil {
				return fmt.Errorf("probe: artifact %s: %w", step.name, err)
			}
			per = append(per, ms(d))
		}
		m["artifact."+step.name] = metric{median(per), "ms"}
	}
	m["artifact.bytes"] = metric{float64(buf.Len()), "bytes"}
	return nil
}

// serverProbe drives a fixed golden-preset sequence through a fresh server:
// three cold campaigns, each read back twice from memory; then, after a
// restart on the same store, each read from disk and again from memory.
func serverProbe(ctx context.Context, e *env, t *tally) ([]outcome, server.Stats, error) {
	base := e.golden.Options()
	f, err := newFixture(base)
	if err != nil {
		return nil, server.Stats{}, err
	}
	defer f.close()
	bc := newBodyCheck(t, base, e.goldens)
	var first, again []request
	for _, s := range []uint64{11, 12, 13} {
		first = append(first,
			request{"cold", s, "table3", rhvpp.FormatText},
			request{"revisit", s, "fig5", rhvpp.FormatJSON},
			request{"revisit", s, "summary", rhvpp.FormatCSV})
		again = append(again,
			request{"revisit", s, "table3", rhvpp.FormatText},
			request{"revisit", s, "fig5", rhvpp.FormatJSON})
	}
	forever := time.Now().Add(time.Hour)
	outs := f.drive(ctx, &requestMix{sessions: [][]request{first}}, 1, forever, nil, bc).outs
	st := f.srv.Stats()
	if err := f.restart(); err != nil {
		return nil, st, err
	}
	outs = append(outs, f.drive(ctx, &requestMix{sessions: [][]request{again}}, 1, forever, nil, bc).outs...)
	st2 := f.srv.Stats()
	st.Computations += st2.Computations
	st.DiskHits += st2.DiskHits
	st.MemHits += st2.MemHits
	return outs, st, ctx.Err()
}

// serverMetrics reports the server's cache outcomes and the client-side
// latency of each serving path.
func serverMetrics(m map[string]metric, st server.Stats, outs []outcome) {
	m["server.computations"] = metric{float64(st.Computations), "count"}
	m["server.disk_hits"] = metric{float64(st.DiskHits), "count"}
	m["server.mem_hits"] = metric{float64(st.MemHits), "count"}
	ratio := 0.0
	if total := st.Computations + st.DiskHits + st.MemHits; total > 0 {
		ratio = float64(st.DiskHits+st.MemHits) / float64(total)
	}
	m["server.hit_ratio"] = metric{ratio, "frac"}
	split := byCache(outs)
	for _, k := range []string{"mem", "disk", "compute"} {
		m["server."+k+".p50_ms"] = metric{median(split[k]), "ms"}
	}
}

// startProfile starts the CPU profile; the returned func stops it.
func startProfile(path string) (func() error, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profGroups are the layers CPU self time is attributed to.
var profGroups = []string{
	"rng", "dram", "physics", "softmc", "core", "spice", "stats", "experiments", "report",
	"encoding-json", "runtime-malloc", "runtime-gc",
}

// profileShares reads the CPU profile's flat (self) samples with `go tool
// pprof -top` and returns each group's share of all samples.
func profileShares(ctx context.Context, path string) (map[string]float64, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-unit=ms", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(out)
}

// parseTop sums the flat column of `pprof -top -unit=ms` output per group.
func parseTop(out []byte) (map[string]float64, error) {
	shares := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		total += flat
		if g := groupOf(f[5]); g != "" {
			shares[g] += flat
		}
	}
	if total > 0 {
		for g := range shares {
			shares[g] /= total
		}
	}
	return shares, sc.Err()
}

const modulePath = "github.com/dramstudy/rhvpp"

// groupOf maps a profiled function to its group: the repository's internal
// package, encoding/json, or the runtime's allocator or collector (told
// apart by function name).
func groupOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	pkg, name := fn[:slash+1+dot], fn[slash+1+dot+1:]
	switch {
	case strings.HasPrefix(pkg, modulePath+"/internal/"):
		g := strings.TrimPrefix(pkg, modulePath+"/internal/")
		if slices.Contains(profGroups, g) {
			return g
		}
	case pkg == "encoding/json":
		return "encoding-json"
	case pkg == "runtime":
		for _, k := range []string{"malloc", "nextFree", "mcache", "mcentral", "newobject", "growslice", "makeslice"} {
			if strings.Contains(name, k) {
				return "runtime-malloc"
			}
		}
		for _, k := range []string{"gc", "scan", "mark", "sweep", "greyobject", "findObject", "wbBuf"} {
			if strings.Contains(name, k) {
				return "runtime-gc"
			}
		}
	}
	return ""
}
