package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dramstudy/rhvpp"
)

// waitFor polls cond until it holds or ~10s elapse. The server's interesting
// states (waiter counts, drain transitions) are reached by goroutines the
// test cannot join directly, so observable-state polling is the sync point.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for range 2000 {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// gatedCompute is an injectable ComputeFunc whose completion the test
// controls: every call announces one fake study and reports its one unit,
// then blocks until release closes (or its flight is canceled). calls
// counts real invocations — the singleflight assertions read it.
type gatedCompute struct {
	release chan struct{}
	calls   atomic.Int64
}

func newGatedCompute() *gatedCompute {
	return &gatedCompute{release: make(chan struct{})}
}

func (g *gatedCompute) fn(ctx context.Context, o rhvpp.Options, st *rhvpp.ArtifactStore, fn rhvpp.ProgressFunc) (*rhvpp.Campaign, bool, error) {
	g.calls.Add(1)
	if fn != nil {
		fn(rhvpp.ProgressEvent{Study: "fake", Total: 1})
		fn(rhvpp.ProgressEvent{Study: "fake", Key: "u1", Done: 1, Total: 1})
	}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	c, err := rhvpp.NewCampaign(o)
	if err != nil {
		return nil, false, err
	}
	return c, false, nil
}

// tinyOptions is the smallest valid campaign: one module, one row, a
// two-run Monte-Carlo at a single retention voltage. Real computations in
// these tests use it so the suite stays fast under -race.
func tinyOptions() rhvpp.Options {
	o := rhvpp.DefaultOptions()
	cfg := rhvpp.QuickConfig()
	cfg.MinHCStep = 4000
	o.Config = cfg
	o.ModuleNames = []string{"B3"}
	o.Chunks = 1
	o.RowsPerChunk = 3
	o.VPPStride = 8
	o.SpiceMCRuns = 2
	o.RetentionVPPLevels = []float64{2.5}
	return o
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestServeGoldenAllJSON pins the serving contract to the committed goldens:
// the body of /v1/experiments/all for the golden preset is byte-identical to
// what the CLI prints for `rhvpp -exp all -preset golden`, in every format.
func TestServeGoldenAllJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign computation in -short mode")
	}
	_, hs := newTestServer(t, Config{Base: rhvpp.GoldenOptions()})
	for _, format := range []string{"json", "text", "csv"} {
		want, err := os.ReadFile("../../testdata/golden/all." + map[string]string{
			"json": "json", "text": "txt", "csv": "csv",
		}[format])
		if err != nil {
			t.Fatal(err)
		}
		code, body, hdr := get(t, hs.URL+"/v1/experiments/all?format="+format)
		if code != http.StatusOK {
			t.Fatalf("format %s: status %d: %s", format, code, body)
		}
		if body != string(want) {
			t.Errorf("format %s: body differs from golden (%d vs %d bytes)", format, len(body), len(want))
		}
		if hdr.Get("X-Rhvpp-Fingerprint") == "" {
			t.Errorf("format %s: no fingerprint header", format)
		}
	}
}

// TestSingleflightCollapsesConcurrentRequests fires N identical requests and
// requires exactly one computation: every request joins the same flight, and
// every waiter gets the same complete answer.
func TestSingleflightCollapsesConcurrentRequests(t *testing.T) {
	g := newGatedCompute()
	srv, hs := newTestServer(t, Config{Base: tinyOptions(), Compute: g.fn})
	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], bodies[i], _ = get(t, hs.URL+"/v1/experiments/table1")
		}()
	}
	waitFor(t, "all waiters to join the flight", func() bool {
		st := srv.Stats()
		return len(st.InFlight) == 1 && st.InFlight[0].Waiters == n
	})
	close(g.release)
	wg.Wait()
	for i := range n {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("request %d got a different body", i)
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests ran %d computations, want 1", n, got)
	}
	if st := srv.Stats(); st.Computations != 1 {
		t.Errorf("stats report %d computations, want 1", st.Computations)
	}
	// A later identical request is a memory hit, not a recompute.
	code, _, hdr := get(t, hs.URL+"/v1/experiments/table1")
	if code != http.StatusOK || hdr.Get("X-Rhvpp-Cache") != "mem" {
		t.Errorf("follow-up request: status %d cache %q, want 200 mem", code, hdr.Get("X-Rhvpp-Cache"))
	}
}

// TestCanceledWaiterDoesNotPoisonFlight cancels one of two waiters
// mid-computation: the survivor must still get its answer from the single
// computation. Only when the LAST waiter leaves is the flight canceled, and
// a fresh request then computes anew instead of failing on the stale cancel.
func TestCanceledWaiterDoesNotPoisonFlight(t *testing.T) {
	g := newGatedCompute()
	srv, hs := newTestServer(t, Config{Base: tinyOptions(), Compute: g.fn})

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctxA, "GET", hs.URL+"/v1/experiments/table1", nil)
		if err != nil {
			errA <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("canceled request completed with status %d", resp.StatusCode)
		}
		errA <- err
	}()
	type result struct {
		code int
		body string
	}
	resB := make(chan result, 1)
	go func() {
		code, body, _ := get(t, hs.URL+"/v1/experiments/table1")
		resB <- result{code, body}
	}()
	waitFor(t, "both waiters to join the flight", func() bool {
		st := srv.Stats()
		return len(st.InFlight) == 1 && st.InFlight[0].Waiters == 2
	})

	cancelA()
	if err := <-errA; err == nil {
		t.Fatal("canceled request reported success")
	}
	// The flight survives A's departure: B is still waiting on it.
	waitFor(t, "flight to drop to one waiter", func() bool {
		st := srv.Stats()
		return len(st.InFlight) == 1 && st.InFlight[0].Waiters == 1
	})
	close(g.release)
	b := <-resB
	if b.code != http.StatusOK {
		t.Fatalf("surviving waiter: status %d: %s", b.code, b.body)
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("neighbor's cancellation caused %d computations, want 1", got)
	}
}

// TestAllWaitersCancelCausesFreshCompute is the other half of the
// no-poison contract: when the LAST waiter leaves, the flight is canceled,
// and the next identical request starts a fresh computation rather than
// inheriting the corpse.
func TestAllWaitersCancelCausesFreshCompute(t *testing.T) {
	g := newGatedCompute()
	srv, hs := newTestServer(t, Config{Base: tinyOptions(), Compute: g.fn})
	ctxC, cancelC := context.WithCancel(context.Background())
	defer cancelC()
	errC := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctxC, "GET", hs.URL+"/v1/experiments/table1?seed=99", nil)
		if err != nil {
			errC <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("canceled request completed with status %d", resp.StatusCode)
		}
		errC <- err
	}()
	waitFor(t, "lone waiter to join", func() bool {
		return len(srv.Stats().InFlight) == 1
	})
	cancelC()
	if err := <-errC; err == nil {
		t.Fatal("canceled request reported success")
	}
	waitFor(t, "canceled flight to retire", func() bool {
		return len(srv.Stats().InFlight) == 0
	})
	close(g.release) // the fresh computation may complete immediately
	code, body, hdr := get(t, hs.URL+"/v1/experiments/table1?seed=99")
	if code != http.StatusOK {
		t.Fatalf("post-cancel request: status %d: %s", code, body)
	}
	if hdr.Get("X-Rhvpp-Cache") != "compute" {
		t.Errorf("post-cancel request served from %q, want a fresh compute", hdr.Get("X-Rhvpp-Cache"))
	}
	if got := g.calls.Load(); got != 2 {
		t.Errorf("calls = %d, want 2 (one canceled, one fresh)", got)
	}
}

// TestWarmStoreServesAcrossRestart computes a tiny campaign against a store,
// then serves the same request from a brand-new server over the same
// directory: identical bytes, zero computations, one disk hit.
func TestWarmStoreServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := rhvpp.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, hs1 := newTestServer(t, Config{Base: tinyOptions(), Store: st1})
	code, body1, hdr1 := get(t, hs1.URL+"/v1/experiments/table3")
	if code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", code, body1)
	}
	if hdr1.Get("X-Rhvpp-Cache") != "compute" {
		t.Fatalf("cold request served from %q, want compute", hdr1.Get("X-Rhvpp-Cache"))
	}
	if s := srv1.Stats(); s.Computations != 1 || s.DiskHits != 0 {
		t.Fatalf("first server stats: %+v", s)
	}

	// "Restart": a fresh server and a fresh store handle on the same dir.
	st2, err := rhvpp.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, hs2 := newTestServer(t, Config{Base: tinyOptions(), Store: st2})
	code, body2, hdr2 := get(t, hs2.URL+"/v1/experiments/table3")
	if code != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", code, body2)
	}
	if body2 != body1 {
		t.Error("restarted server rendered different bytes from the stored artifact")
	}
	if hdr2.Get("X-Rhvpp-Cache") != "disk" {
		t.Errorf("warm request served from %q, want disk", hdr2.Get("X-Rhvpp-Cache"))
	}
	if s := srv2.Stats(); s.Computations != 0 || s.DiskHits != 1 {
		t.Errorf("restarted server recomputed: %+v", s)
	}
	if hdr2.Get("X-Rhvpp-Fingerprint") != hdr1.Get("X-Rhvpp-Fingerprint") {
		t.Error("fingerprint changed across restart")
	}
}

// TestGracefulShutdownDrains starts a computation, begins shutdown, and
// checks the contract: new requests 503 while the in-flight one completes
// with 200. If the drain deadline expires instead, the remaining flights are
// canceled and their waiters get the draining refusal too.
func TestGracefulShutdownDrains(t *testing.T) {
	g := newGatedCompute()
	srv, hs := newTestServer(t, Config{Base: tinyOptions(), Compute: g.fn})
	type result struct {
		code int
		body string
	}
	inflight := make(chan result, 1)
	go func() {
		code, body, _ := get(t, hs.URL+"/v1/experiments/table1")
		inflight <- result{code, body}
	}()
	waitFor(t, "computation to start", func() bool {
		return len(srv.Stats().InFlight) == 1
	})

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(context.Background()) }()
	waitFor(t, "drain to begin", func() bool { return srv.Stats().Draining })

	// New work is refused while the listener still answers.
	code, body, _ := get(t, hs.URL+"/v1/experiments/table1?seed=7")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d: %s", code, body)
	}
	if strings.TrimSuffix(body, "\n") != ErrDraining.Error() {
		t.Errorf("drain refusal body %q", body)
	}
	if code, body, _ := get(t, hs.URL+"/v1/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d: %s", code, body)
	}

	// The accepted request still completes.
	close(g.release)
	if r := <-inflight; r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", r.code, r.body)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownDeadlineCancelsStragglers covers the other drain arm: a
// computation that cannot finish by the deadline is canceled, Shutdown
// reports the overrun, and the waiter ends with the draining refusal
// instead of hanging forever.
func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	g := newGatedCompute() // never released
	srv, hs := newTestServer(t, Config{Base: tinyOptions(), Compute: g.fn})
	type result struct {
		code int
		body string
	}
	inflight := make(chan result, 1)
	go func() {
		code, body, _ := get(t, hs.URL+"/v1/experiments/table1")
		inflight <- result{code, body}
	}()
	waitFor(t, "computation to start", func() bool {
		return len(srv.Stats().InFlight) == 1
	})
	ctx, cancel := context.WithCancel(context.Background())
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	waitFor(t, "drain to begin", func() bool { return srv.Stats().Draining })
	cancel() // deadline expires with the flight still running
	if err := <-shutdownErr; err == nil {
		t.Fatal("Shutdown reported success with a straggler canceled")
	}
	// The waiter's flight died canceled; its retry hits the drain gate.
	if r := <-inflight; r.code != http.StatusServiceUnavailable {
		t.Errorf("straggler's waiter: status %d: %s", r.code, r.body)
	}
}

// TestQueryOptionsErrors pins HTTP 400 bodies to the exact error text the
// CLI prints for the same mistakes — one validation layer, two surfaces.
func TestQueryOptionsErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{Base: tinyOptions()})
	badJobs := tinyOptions()
	badJobs.Jobs = -1
	badModules := tinyOptions()
	badModules.ModuleNames = []string{"ZZ"}
	const known = "modules, rows, chunks, seed, stride, mc, jobs"
	_, unknownExpErr := rhvpp.LookupExperiment("nope")
	_, unknownPresetErr := rhvpp.PresetOptions("bogus")
	_, badFormatErr := rhvpp.NewEncoder(rhvpp.Format("yaml"), io.Discard)
	for _, tc := range []struct {
		name, url, want string
	}{
		{"negative jobs", "/v1/experiments/table3?jobs=-1", badJobs.Validate().Error()},
		{"unknown experiment", "/v1/experiments/nope", unknownExpErr.Error()},
		{"unknown module", "/v1/experiments/table3?modules=ZZ", badModules.Validate().Error()},
		{"unknown format", "/v1/experiments/table3?format=yaml", badFormatErr.Error()},
		{"unknown preset", "/v1/experiments/table3?preset=bogus", unknownPresetErr.Error()},
		{"unknown knob", "/v1/experiments/table3?rowz=5", `unknown option "rowz" (known: ` + known + `)`},
		{"retired knob", "/v1/experiments/all?batch=1", `unknown option "batch" (known: ` + known + `)`},
		{"retired fixed grid", "/v1/experiments/fig8b?fixed-grid=true", `unknown option "fixed-grid" (known: ` + known + `)`},
		{"retired tolerance", "/v1/experiments/fig8b?ltetol=1e-6", `unknown option "ltetol" (known: ` + known + `)`},
		{"unparseable knob", "/v1/experiments/table3?rows=eight", ""},
		{"negative mc", "/v1/experiments/fig8b?mc=-5", `option mc: invalid value "-5" (must not be negative; 0 keeps the preset's value)`},
		{"negative stride", "/v1/experiments/table3?stride=-1", `option stride: invalid value "-1" (must not be negative; 0 keeps the preset's value)`},
		{"negative rows", "/v1/experiments/table3?rows=-2", `option rows: invalid value "-2" (must not be negative; 0 keeps the preset's value)`},
		{"negative chunks", "/v1/experiments/table3?chunks=-1", `option chunks: invalid value "-1" (must not be negative; 0 keeps the preset's value)`},
		{"repeated knob", "/v1/experiments/fig8b?mc=5&mc=50", `query key "mc" given 2 times (give each key once)`},
		{"repeated format", "/v1/experiments/table3?format=json&format=csv", `query key "format" given 2 times (give each key once)`},
		{"repeated preset", "/v1/experiments/table3?preset=golden&preset=golden", `query key "preset" given 2 times (give each key once)`},
	} {
		code, body, _ := get(t, hs.URL+tc.url)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if tc.want != "" && strings.TrimSuffix(body, "\n") != tc.want {
			t.Errorf("%s: body %q\n  want %q", tc.name, strings.TrimSuffix(body, "\n"), tc.want)
		}
	}
}

// TestCatalogAndProgress smoke-tests the discovery endpoints: the catalog
// lists every experiment, and a flight's progress endpoint streams NDJSON
// events while the computation runs.
func TestCatalogAndProgress(t *testing.T) {
	g := newGatedCompute()
	srv, hs := newTestServer(t, Config{Base: tinyOptions(), Compute: g.fn})

	code, body, hdr := get(t, hs.URL+"/v1/experiments")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "json") {
		t.Fatalf("catalog: status %d type %s", code, hdr.Get("Content-Type"))
	}
	var entries []struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(rhvpp.Experiments()) {
		t.Errorf("catalog lists %d experiments, want %d", len(entries), len(rhvpp.Experiments()))
	}

	if code, body, _ := get(t, hs.URL+"/v1/studies/deadbeef/progress"); code != http.StatusNotFound {
		t.Errorf("unknown study progress: status %d: %s", code, body)
	}

	// Stream a live flight's progress. The fetch blocks on the gated compute,
	// so it runs in a goroutine; any transport error surfaces as the flight
	// never starting (caught by waitFor below), so the result is discarded
	// rather than t.Fatal-ing off the test goroutine.
	go func() {
		resp, err := http.Get(hs.URL + "/v1/experiments/table1")
		if err == nil {
			resp.Body.Close() //detlint:ignore sinkerr test fetch, body already drained by server close
		}
	}()
	waitFor(t, "flight to start", func() bool { return len(srv.Stats().InFlight) == 1 })
	fp := srv.Stats().InFlight[0].Fingerprint
	resp, err := http.Get(hs.URL + "/v1/studies/" + fp + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	readLine := func() rhvpp.ProgressEvent {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("progress stream ended early: %v", sc.Err())
		}
		var ev rhvpp.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		return ev
	}
	if ev := readLine(); ev.Study != "fake" || ev.Key != "" || ev.Total != 1 {
		t.Errorf("first event %+v, want the fake study's announcement", ev)
	}
	if ev := readLine(); ev.Study != "fake" || ev.Key != "u1" {
		t.Errorf("second event %+v, want the fake unit completion", ev)
	}
	close(g.release)
	// The stream ends when the flight completes.
	waitFor(t, "stream to close", func() bool { return !sc.Scan() })

	// After completion the session replays the full log.
	code, body, _ = get(t, hs.URL+"/v1/studies/"+fp+"/progress")
	if code != http.StatusOK {
		t.Fatalf("completed study progress: status %d", code)
	}
	if lines := strings.Count(body, "\n"); lines != 2 {
		t.Errorf("replayed log has %d lines, want 2:\n%s", lines, body)
	}
}

// TestProgressStreamsEachStudy computes a real campaign and replays its
// progress log: every shardable study is announced, in plan order, with its
// own unit count, and each study's completions count up to that total.
func TestProgressStreamsEachStudy(t *testing.T) {
	o := tinyOptions()
	_, hs := newTestServer(t, Config{Base: o})
	code, body, hdr := get(t, hs.URL+"/v1/experiments/table1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	code, body, _ = get(t, hs.URL+"/v1/studies/"+hdr.Get("X-Rhvpp-Fingerprint")+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress: status %d: %s", code, body)
	}
	var announced []string
	total := map[string]int{}
	done := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		var ev rhvpp.ProgressEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if ev.Key == "" {
			announced = append(announced, ev.Study)
			total[ev.Study] = ev.Total
			continue
		}
		if ev.Total != total[ev.Study] || ev.Done != done[ev.Study]+1 {
			t.Errorf("unit event %+v after %d of %d done", ev, done[ev.Study], total[ev.Study])
		}
		done[ev.Study] = ev.Done
	}
	studies := rhvpp.ShardableStudies()
	if len(announced) != len(studies) {
		t.Fatalf("announced %v, want the %d shardable studies", announced, len(studies))
	}
	for i, s := range studies {
		units, err := rhvpp.PlanUnits(o, s)
		if err != nil {
			t.Fatal(err)
		}
		if announced[i] != string(s) || total[string(s)] != len(units) || done[string(s)] != len(units) {
			t.Errorf("study %s: announced %q with total %d, done %d; want %d units",
				s, announced[i], total[string(s)], done[string(s)], len(units))
		}
	}
}

// TestSessionCacheEvictsLeastRecentlyUsed fills the session cache past its
// cap after re-reading its oldest entry: the read must move that campaign to
// the back, so the one evicted is the least recently used, not the oldest.
func TestSessionCacheEvictsLeastRecentlyUsed(t *testing.T) {
	g := newGatedCompute()
	close(g.release) // no gating; computations complete immediately
	srv, hs := newTestServer(t, Config{Base: tinyOptions(), Compute: g.fn})
	fetch := func(seed int) string {
		t.Helper()
		code, body, hdr := get(t, hs.URL+fmt.Sprintf("/v1/experiments/table1?seed=%d", seed))
		if code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, code, body)
		}
		return hdr.Get("X-Rhvpp-Cache")
	}
	for seed := 1; seed <= sessionCap; seed++ {
		if got := fetch(seed); got != "compute" {
			t.Fatalf("filling seed %d: cache %q, want compute", seed, got)
		}
	}
	// Seed 1 is now the most recently used; one more campaign evicts seed
	// 2, the least recently used.
	if got := fetch(1); got != "mem" {
		t.Fatalf("re-read of seed 1: cache %q, want mem", got)
	}
	if got := fetch(sessionCap + 1); got != "compute" {
		t.Fatalf("seed %d: cache %q, want compute", sessionCap+1, got)
	}
	st := srv.Stats()
	if len(st.Sessions) != sessionCap {
		t.Fatalf("session cache holds %d entries, want %d", len(st.Sessions), sessionCap)
	}
	if st.Computations != sessionCap+1 {
		t.Errorf("computations = %d, want %d", st.Computations, sessionCap+1)
	}
	// Seed 1 survived because it was read; seed 2 fell out and recomputes.
	if got := fetch(1); got != "mem" {
		t.Errorf("recently read session evicted: cache %q", got)
	}
	if got := fetch(2); got != "compute" {
		t.Errorf("least recently used session survived a full cache: cache %q", got)
	}
}

// TestExecutionShapeKnobsShareOneFlight pins the fingerprint contract at the
// serving layer: jobs= shapes execution, not results, so requests differing
// only in it collapse onto one computation.
func TestExecutionShapeKnobsShareOneFlight(t *testing.T) {
	g := newGatedCompute()
	close(g.release)
	srv, hs := newTestServer(t, Config{Base: tinyOptions(), Compute: g.fn})
	var fps [2]string
	for i, q := range []string{"", "?jobs=2"} {
		code, body, hdr := get(t, hs.URL+"/v1/experiments/table1"+q)
		if code != http.StatusOK {
			t.Fatalf("query %q: status %d: %s", q, code, body)
		}
		fps[i] = hdr.Get("X-Rhvpp-Fingerprint")
	}
	if fps[1] != fps[0] {
		t.Errorf("the execution-shape knob jobs= changed the fingerprint: %v", fps)
	}
	if st := srv.Stats(); st.Computations != 1 || st.MemHits != 1 {
		t.Errorf("stats %+v, want 1 computation and 1 memory hit", st)
	}
}
