package rhvpp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// campaignOptions is a tightly scoped campaign for fast Campaign tests.
func campaignOptions(modules ...string) Options {
	o := DefaultOptions()
	o.Geometry = Geometry{Banks: 1, RowsPerBank: 4096, RowBytes: 512, SubarrayRows: 512}
	cfg := QuickConfig()
	cfg.MinHCStep = 4000
	o.Config = cfg
	o.Chunks = 2
	o.RowsPerChunk = 3
	o.VPPStride = 4
	o.SpiceMCRuns = 20
	o.RetentionVPPLevels = []float64{2.5, 1.9, 1.5}
	o.ModuleNames = modules
	return o
}

func TestNewCampaignValidatesModuleNames(t *testing.T) {
	o := campaignOptions("B3", "ZZ")
	if _, err := NewCampaign(o); err == nil {
		t.Fatal("unknown module accepted")
	} else if !strings.Contains(err.Error(), "ZZ") || !strings.Contains(err.Error(), "A0") {
		t.Errorf("error should name the offender and the known labels: %v", err)
	}
	if _, err := NewCampaign(campaignOptions("B3")); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}
}

// TestNewCampaignRejectsBadTRCDStep checks that an Alg. 2 latency step
// that is not positive and finite fails up front: a zero step would spin the
// tRCD sweep at its start latency.
func TestNewCampaignRejectsBadTRCDStep(t *testing.T) {
	for _, step := range []float64{0, -1.5, math.NaN(), math.Inf(1)} {
		o := GoldenOptions()
		o.Config.TRCDStepNS = step
		if _, err := NewCampaign(o); err == nil || !strings.Contains(err.Error(), "TRCDStepNS") {
			t.Errorf("TRCDStepNS %v: NewCampaign error %v, want one naming the step", step, err)
		}
	}
}

// TestNewCampaignRejectsBadMCRuns checks that a Monte-Carlo size below one
// run per level fails up front: zero runs rendered the Fig. 9b restored
// fraction as NaN%, and a negative count as -0.0% with Runs: -3 in every
// level's result.
func TestNewCampaignRejectsBadMCRuns(t *testing.T) {
	for _, runs := range []int{0, -3} {
		o := GoldenOptions()
		o.SpiceMCRuns = runs
		if _, err := NewCampaign(o); err == nil || !strings.Contains(err.Error(), "SpiceMCRuns") {
			t.Errorf("SpiceMCRuns %d: NewCampaign error %v, want one naming the run count", runs, err)
		}
	}
	o := GoldenOptions()
	o.SpiceMCRuns = 1
	if _, err := NewCampaign(o); err != nil {
		t.Errorf("SpiceMCRuns 1 rejected: %v", err)
	}
}

// TestCampaignCachesStudies is the acceptance property of the redesign:
// running every experiment id that shares a study through one Campaign
// executes each underlying study driver exactly once.
func TestCampaignCachesStudies(t *testing.T) {
	c, err := NewCampaign(campaignOptions("B3"))
	if err != nil {
		t.Fatal(err)
	}
	groups := map[Study][]string{
		StudyRowHammer:    {"table3", "fig3", "fig4", "fig5", "fig6", "summary", "abl-defense"},
		StudyTRCD:         {"fig7", "guardband"},
		StudyWaveforms:    {"fig8a", "fig9a"},
		StudySpiceMC:      {"fig8b", "fig9b"},
		StudyRetention:    {"fig10a", "fig10b"},
		StudyWordAnalysis: {"fig11"},
	}
	for study, ids := range groups {
		for _, id := range ids {
			var buf bytes.Buffer
			if err := c.Run(t.Context(), id, NewTextEncoder(&buf)); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", id)
			}
		}
		if got := c.StudyRuns()[study]; got != 1 {
			t.Errorf("study %s executed %d times across %v, want exactly 1", study, got, ids)
		}
	}
}

// TestCampaignConcurrentRunsShareOneExecution drives the same study from
// many goroutines at once; the memoization must serialize to a single run.
func TestCampaignConcurrentRunsShareOneExecution(t *testing.T) {
	c, err := NewCampaign(campaignOptions("B3"))
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"table3", "fig3", "fig5", "summary", "fig4", "fig6"}
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			errs[i] = c.Run(t.Context(), id, NewTextEncoder(&buf))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}
	if got := c.StudyRuns()[StudyRowHammer]; got != 1 {
		t.Errorf("concurrent renders executed the RowHammer study %d times, want 1", got)
	}
}

// TestCampaignWorkerCountDeterminism checks the other acceptance property:
// per-study output is byte-identical at jobs=1 and jobs=8.
func TestCampaignWorkerCountDeterminism(t *testing.T) {
	render := func(jobs int) string {
		o := campaignOptions("B3", "C0", "A3")
		o.Jobs = jobs
		c, err := NewCampaign(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc := NewTextEncoder(&buf)
		for _, id := range []string{"table3", "fig5", "fig10b", "summary"} {
			if err := c.Run(t.Context(), id, enc); err != nil {
				t.Fatalf("jobs=%d %s: %v", jobs, id, err)
			}
		}
		return buf.String()
	}
	if serial, parallel := render(1), render(8); serial != parallel {
		t.Errorf("output differs between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			serial, parallel)
	}
}

func TestCampaignHonorsCancellation(t *testing.T) {
	c, err := NewCampaign(campaignOptions("B3"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var buf bytes.Buffer
	if err := c.Run(ctx, "table3", NewTextEncoder(&buf)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run returned %v, want context.Canceled", err)
	}
	// A canceled attempt must not poison the session: the same campaign
	// with a live context measures and succeeds.
	buf.Reset()
	if err := c.Run(t.Context(), "table3", NewTextEncoder(&buf)); err != nil {
		t.Fatalf("run after cancellation failed: %v", err)
	}
	if !strings.Contains(buf.String(), "B3") {
		t.Errorf("post-cancellation output wrong:\n%s", buf.String())
	}
}

// TestCellCanceledComputationDoesNotPoisonUnderConcurrency pins the memo
// cell's cancellation semantics with two racing callers: the first caller's
// computation aborts with context.Canceled and must NOT be memoized; the
// second caller — already blocked on the cell while the first computes —
// must then re-measure under its own live context and succeed; a third
// caller gets the memoized success without running anything.
func TestCellCanceledComputationDoesNotPoisonUnderConcurrency(t *testing.T) {
	var c cell[int]
	firstEntered := make(chan struct{})
	firstRelease := make(chan struct{})
	var runs atomic.Int32

	firstDone := make(chan error, 1)
	go func() {
		_, err := c.get(func() (int, error) {
			runs.Add(1)
			close(firstEntered)
			<-firstRelease
			return 0, fmt.Errorf("sweep aborted: %w", context.Canceled)
		})
		firstDone <- err
	}()

	<-firstEntered // the first caller is now computing inside the cell
	secondDone := make(chan struct{})
	var secondVal int
	var secondErr error
	go func() {
		defer close(secondDone)
		// Blocks on the cell's lock until the first computation finishes.
		secondVal, secondErr = c.get(func() (int, error) {
			runs.Add(1)
			return 42, nil
		})
	}()

	close(firstRelease)
	if err := <-firstDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("first caller returned %v, want context.Canceled", err)
	}
	<-secondDone
	if secondErr != nil || secondVal != 42 {
		t.Fatalf("second caller got (%d, %v), want (42, nil): the canceled attempt poisoned the cell", secondVal, secondErr)
	}

	// The success IS memoized: a third caller must not run its function.
	third, err := c.get(func() (int, error) {
		runs.Add(1)
		return -1, nil
	})
	if err != nil || third != 42 {
		t.Fatalf("third caller got (%d, %v), want memoized (42, nil)", third, err)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("computation ran %d times, want 2 (canceled attempt + live re-measure)", got)
	}
}

// TestCellMemoizesGenuineFailures: non-cancellation errors are results, not
// transient conditions — they memoize like values.
func TestCellMemoizesGenuineFailures(t *testing.T) {
	var c cell[int]
	var runs atomic.Int32
	boom := errors.New("testbed fault")
	for i := 0; i < 3; i++ {
		if _, err := c.get(func() (int, error) {
			runs.Add(1)
			return 0, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("call %d returned %v, want the memoized fault", i, err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("failing computation ran %d times, want 1", got)
	}
}

// adhocIDs are the registry's ad hoc experiments: self-contained results
// the Campaign memoizes per id.
func adhocIDs() []string {
	var ids []string
	for _, e := range registry {
		if e.adhoc != nil {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// TestCampaignMemoizesAdHocExperiments renders every ad hoc id from several
// goroutines at once, in every format, on one Campaign: each id must compute
// exactly once, and every render of one id in one format must give the same
// bytes.
func TestCampaignMemoizesAdHocExperiments(t *testing.T) {
	ids := adhocIDs()
	want := []string{"abl-attacks", "abl-wcdp", "abl-trr", "abl-secded",
		"ext-temp", "ext-attacks", "ext-retfine", "ext-power"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("ad hoc ids %v, want %v", ids, want)
	}
	c, err := NewCampaign(campaignOptions("B3"))
	if err != nil {
		t.Fatal(err)
	}
	const callers = 3
	formats := Formats()
	out := make([][][]byte, len(ids)*len(formats))
	var wg sync.WaitGroup
	for i, id := range ids {
		for j, f := range formats {
			slot := make([][]byte, callers)
			out[i*len(formats)+j] = slot
			for k := range slot {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf bytes.Buffer
					enc, err := NewEncoder(f, &buf)
					if err == nil {
						err = c.Run(t.Context(), id, enc)
					}
					if err != nil {
						t.Errorf("%s (%s): %v", id, f, err)
					}
					slot[k] = buf.Bytes()
				}()
			}
		}
	}
	wg.Wait()
	for i, id := range ids {
		if got := c.adhocRuns[id]; got != 1 {
			t.Errorf("%s computed %d times in one Campaign, want 1", id, got)
		}
		for j, f := range formats {
			slot := out[i*len(formats)+j]
			if len(slot[0]) == 0 {
				t.Errorf("%s (%s) rendered nothing", id, f)
			}
			for k := 1; k < len(slot); k++ {
				if !bytes.Equal(slot[k], slot[0]) {
					t.Errorf("%s (%s): render %d differs from render 0", id, f, k)
				}
			}
		}
	}
	if runs := c.StudyRuns(); len(runs) != 0 {
		t.Errorf("ad hoc renders ran studies: %v", runs)
	}
}

// TestEveryIDRendersIdenticallyTwice renders the whole catalog twice on one
// Campaign: the second pass reads only memoized results and must give the
// first pass's bytes.
func TestEveryIDRendersIdenticallyTwice(t *testing.T) {
	c, err := NewCampaign(campaignOptions("B3"))
	if err != nil {
		t.Fatal(err)
	}
	render := func() []string {
		out := make([]string, 0, len(registry))
		for _, e := range registry {
			var buf bytes.Buffer
			enc, err := NewEncoder(FormatJSON, &buf)
			if err == nil {
				err = c.Run(t.Context(), e.ID, enc)
			}
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out = append(out, buf.String())
		}
		return out
	}
	first, second := render(), render()
	for i, e := range registry {
		if first[i] != second[i] {
			t.Errorf("%s: second render differs from the first", e.ID)
		}
	}
}

// TestCampaignAdHocCancellationIsNotMemoized: an ad hoc render under a
// canceled context fails with the cancellation, and the next render with a
// live context computes instead of replaying it.
func TestCampaignAdHocCancellationIsNotMemoized(t *testing.T) {
	c, err := NewCampaign(campaignOptions("B3"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var buf bytes.Buffer
	if err := c.Run(ctx, "ext-power", NewTextEncoder(&buf)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled render returned %v, want context.Canceled", err)
	}
	for i := 0; i < 2; i++ {
		buf.Reset()
		if err := c.Run(t.Context(), "ext-power", NewTextEncoder(&buf)); err != nil {
			t.Fatalf("render %d after cancellation: %v", i, err)
		}
		if !strings.Contains(buf.String(), "B3") {
			t.Errorf("render %d after cancellation:\n%s", i, buf.String())
		}
	}
	if got := c.adhocRuns["ext-power"]; got != 2 {
		t.Errorf("ext-power computed %d times, want 2 (canceled attempt + one live)", got)
	}
}

// TestCampaignsShareOneWaveformSimulation: the Fig. 8a/9a traces take no
// options, so two Campaigns at different options, asking at once, get the
// very same traces (one simulation per process), while each still counts
// its own study run.
func TestCampaignsShareOneWaveformSimulation(t *testing.T) {
	var traces [2]Waveforms
	var wg sync.WaitGroup
	for i, seed := range []uint64{2022, 7} {
		o := campaignOptions("B3")
		o.Seed = seed
		c, err := NewCampaign(o)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				wf, err := c.SpiceWaveforms(t.Context())
				if err != nil {
					t.Errorf("campaign %d: %v", i, err)
					return
				}
				traces[i] = wf
			}
			if got := c.StudyRuns()[StudyWaveforms]; got != 1 {
				t.Errorf("campaign %d ran the waveform study %d times, want 1", i, got)
			}
		}()
	}
	wg.Wait()
	a, b := traces[0], traces[1]
	if len(a.Times) == 0 || len(a.Times[0]) == 0 || len(b.Times) == 0 || len(b.Times[0]) == 0 {
		t.Fatalf("empty traces: %d and %d levels", len(a.Times), len(b.Times))
	}
	if &a.Times[0][0] != &b.Times[0][0] || &a.Cell[0][0] != &b.Cell[0][0] {
		t.Error("two Campaigns simulated the waveforms separately, want one shared simulation")
	}
}

// TestCampaignStandaloneAblationUsesSharedStudy pins the descriptor
// contract: abl-defense declares StudyRowHammer, so running it alone must
// execute that study (once), not a private side sweep.
func TestCampaignStandaloneAblationUsesSharedStudy(t *testing.T) {
	c, err := NewCampaign(campaignOptions("B3"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Run(t.Context(), "abl-defense", NewTextEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if got := c.StudyRuns()[StudyRowHammer]; got != 1 {
		t.Errorf("abl-defense executed the RowHammer study %d times, want 1", got)
	}
}

func TestExperimentDescriptors(t *testing.T) {
	exps := Experiments()
	if len(exps) != len(ExperimentNames()) {
		t.Fatalf("Experiments() has %d entries, ExperimentNames() %d", len(exps), len(ExperimentNames()))
	}
	for _, e := range exps {
		if e.Title == "" || e.Section == "" {
			t.Errorf("experiment %q lacks a title or section: %+v", e.ID, e)
		}
		got, err := LookupExperiment(e.ID)
		if err != nil || got.Title != e.Title {
			t.Errorf("LookupExperiment(%q) = %+v, %v", e.ID, got, err)
		}
	}
	for _, id := range []string{"table3", "fig3", "fig4", "fig5", "fig6", "summary"} {
		e, _ := LookupExperiment(id)
		if len(e.Studies) != 1 || e.Studies[0] != StudyRowHammer {
			t.Errorf("%s should declare the RowHammer study dependency, got %v", id, e.Studies)
		}
	}
	if _, err := LookupExperiment("nope"); err == nil {
		t.Error("bogus experiment id resolved")
	}
}

func TestCampaignEncodersProduceDistinctFormats(t *testing.T) {
	c, err := NewCampaign(campaignOptions("B3"))
	if err != nil {
		t.Fatal(err)
	}
	outputs := map[Format]string{}
	for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
		var buf bytes.Buffer
		enc, err := NewEncoder(f, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(t.Context(), "table1", enc); err != nil {
			t.Fatal(err)
		}
		outputs[f] = buf.String()
	}
	if !strings.Contains(outputs[FormatJSON], `"kind":"table"`) {
		t.Errorf("JSON output missing kind tag:\n%s", outputs[FormatJSON])
	}
	if !strings.HasPrefix(outputs[FormatCSV], "# Table 1") {
		t.Errorf("CSV output missing title comment:\n%s", outputs[FormatCSV])
	}
	if !strings.Contains(outputs[FormatText], "Mfr") || strings.Contains(outputs[FormatText], `"kind"`) {
		t.Errorf("text output wrong:\n%s", outputs[FormatText])
	}
}
