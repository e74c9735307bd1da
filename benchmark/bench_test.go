package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dramstudy/rhvpp"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 999 samples has 9.99 beyond it; want a refusal")
	}
	if v, err := percentile(append(xs, 1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile([]float64{3, 1, 2}, 50); err != nil || v != 2 {
		t.Errorf("p50 of three samples = %v, %v; want 2 (the median needs no tail)", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples: want an error")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 7.5, 1, 3, 9, 2, 6}, [3]float64{2, 5, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v, want IQR over median", s)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},   // overlaps span 2
		{ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms},  // ends past its parent
		{ID: 5, Parent: 3, Start: 25 * ms, End: 45 * ms},   // a grandchild
		{ID: 6, Parent: 0, Start: 200 * ms, End: 210 * ms}, // another root
	}
	if got := selfTime(spans, 1); got != 50*ms {
		t.Errorf("self time of op = %v, want 50ms (children cover 10-50 and 90-100)", got)
	}
	if got := selfTime(spans, 3); got != 10*ms {
		t.Errorf("self time of span 3 = %v, want 10ms", got)
	}
	if got := selfTime(spans, 6); got != 10*ms {
		t.Errorf("self time of a leaf = %v, want its duration", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder()
	err := rec.do("op", 0, 7, func(op int) error {
		return rec.do("study.x", op, 7, func(int) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Trace != 7 || spans[0].End < spans[1].End {
		t.Errorf("spans = %+v, want study.x nested in op under trace 7", spans)
	}
	var none *recorder
	called := false
	if err := none.do("op", 0, 1, func(int) error { called = true; return nil }); err != nil || !called {
		t.Error("a nil recorder must still run the call")
	}
}

func TestRequestMixIsSeeded(t *testing.T) {
	a, b, c := newRequestMix(2022, 50), newRequestMix(2022, 50), newRequestMix(7, 50)
	if !reflect.DeepEqual(a.sessions, b.sessions) || !reflect.DeepEqual(a.hot, b.hot) {
		t.Error("the same seed drew different request lists")
	}
	if reflect.DeepEqual(a.sessions, c.sessions) {
		t.Error("seeds 2022 and 7 drew the same request list")
	}
	if a.hot[0] != 0 || len(a.hot) != 4 {
		t.Errorf("hot seeds %v: want the base campaign (0) and three variants", a.hot)
	}
	cold := make(map[uint64]bool)
	for i, s := range a.sessions {
		n := map[string]int{}
		for _, q := range s {
			n[q.Kind]++
			switch q.Kind {
			case "cold":
				if cold[q.Seed] {
					t.Errorf("session %d: cold campaign %d was requested before", i, q.Seed)
				}
				cold[q.Seed] = true
			case "revisit":
				if !cold[q.Seed] {
					t.Errorf("session %d: revisit of %d, which no earlier request computed", i, q.Seed)
				}
			}
		}
		if len(s) != sessionLen || n["cold"] != 2 || n["catalog"] != 1 || n["hot"]+n["revisit"] != 17 {
			t.Errorf("session %d kinds %v: want 20 requests with 2 cold and 1 catalog", i, n)
		}
	}
}

func TestBodyCheckCatchesDivergentReplies(t *testing.T) {
	base := golden()
	fp, err := rhvpp.OptionsFingerprint(base)
	if err != nil {
		t.Fatal(err)
	}
	goldens := map[rhvpp.Format][]byte{rhvpp.FormatText: []byte("golden all")}
	tl := &tally{}
	bc := newBodyCheck(tl, base, goldens)
	table3 := request{Kind: "hot", ID: "table3", Format: rhvpp.FormatText}
	all := request{Kind: "hot", ID: "all", Format: rhvpp.FormatText}
	for _, c := range []struct {
		q      request
		status int
		fp     string
		body   string
		failed int
	}{
		{table3, 200, fp, "a", 0},         // first reply for the key
		{table3, 200, fp, "a", 0},         // the same bytes from another path
		{table3, 200, fp, "b", 1},         // different bytes for the same key
		{table3, 200, "deadbeef", "a", 2}, // wrong fingerprint
		{table3, 500, fp, "a", 3},         // error status
		{all, 200, fp, "golden all", 3},   // base campaign matches the goldens
		{all, 200, fp, "not golden", 4},   // ...and must
		{request{Kind: "catalog"}, 200, "", "[]", 4},
		{request{Kind: "catalog"}, 200, "", "[1]", 5},
	} {
		bc.verify(c.q, c.status, c.fp, []byte(c.body), nil)
		if tl.failed != c.failed {
			t.Fatalf("after %+v with body %q: failed = %d, want %d", c.q, c.body, tl.failed, c.failed)
		}
	}
	if tl.attempted != 9 {
		t.Errorf("attempted = %d, want one check per reply", tl.attempted)
	}
}

func TestParseTopGroupsSelfTimeByLayer(t *testing.T) {
	out := `File: rhvpp-bench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      500ms 50.00%  github.com/dramstudy/rhvpp/internal/dram.(*Module).Read
     200ms 20.00% 60.00%      200ms 20.00%  github.com/dramstudy/rhvpp/internal/rng.(*Stream).Derive
     150ms 15.00% 75.00%      150ms 15.00%  runtime.mallocgc
     100ms 10.00% 85.00%      100ms 10.00%  runtime.scanobject
     100ms 10.00% 95.00%      100ms 10.00%  encoding/json.(*encodeState).string (inline)
      50ms  5.00%   100%       50ms  5.00%  syscall.Syscall
         0     0%   100%      900ms 90.00%  main.main
`
	got, err := parseTop([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"dram": 0.4, "rng": 0.2, "runtime-malloc": 0.15, "runtime-gc": 0.1, "encoding-json": 0.1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shares = %v, want %v", got, want)
	}
}

func TestBaselineRecord(t *testing.T) {
	if baseline.BaselineSeed != 2022 || baseline.HoldoutSeed != 7 {
		t.Errorf("seeds %d/%d, want baseline 2022 and holdout 7", baseline.BaselineSeed, baseline.HoldoutSeed)
	}
	for _, w := range workloads {
		if pin := pinFor(w.name, baseline.BaselineSeed); !w.serve && len(pin) != 64 {
			t.Errorf("%s has no sha256 pin at the baseline seed", w.name)
		}
		if pinFor(w.name, baseline.HoldoutSeed) != "" {
			t.Errorf("%s is pinned at the holdout seed", w.name)
		}
	}
}

// TestSmoke runs every workload once untraced and once traced at the golden
// preset's scale: set-up and its golden gate, the timed loop, the output
// checks, the serve fixture, span recording, unit replay, every layer probe
// and the profile grouping.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var out strings.Builder
	cfg := config{seed: baseline.BaselineSeed, root: ".."}
	if err := runSmoke(t.Context(), cfg, t.TempDir(), &out); err != nil {
		t.Fatalf("smoke: %v\n%s", err, out.String())
	}
	for _, name := range []string{"op_ms", "setup_s", "trace.span_cover_frac", "prof.self_frac.spice", "server.mem.p50_ms"} {
		if n := strings.Count(out.String(), " "+name+" "); n != len(workloads) {
			t.Errorf("metric %s printed %d times, want once per workload", name, n)
		}
	}
}
