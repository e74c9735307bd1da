package stats

import (
	"encoding/json"
	"math"
	"math/rand" //detlint:ignore detsource test-local fixed-seed source, never reaches library code
	"testing"
)

// dyadic returns a random stream whose every partial sum is exactly
// representable in float64: values are integers scaled by 2^-10 with
// magnitude < 2^21, so any sum of up to ~2^30 of them stays within the
// 53-bit exact-integer range. On such streams floating-point addition is
// associative, which lets the merge tests demand BIT-IDENTICAL means: any
// divergence is a logic bug in Merge, never rounding.
func dyadic(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(r.Intn(1<<21)-(1<<20)) / 1024.0
	}
	return xs
}

// continuous returns a random stream of arbitrary (finite) float64 values,
// where merged sums may legitimately differ from flat sums in the last ulp.
func continuous(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 10
	}
	return xs
}

// splitPoints cuts xs into k contiguous shards (the shape shard execution
// produces: each shard folds its own units in order, then partials merge in
// catalog order).
func split(xs []float64, k int) [][]float64 {
	if k <= 1 {
		return [][]float64{xs}
	}
	out := make([][]float64, 0, k)
	per := (len(xs) + k - 1) / k
	for lo := 0; lo < len(xs); lo += per {
		hi := lo + per
		if hi > len(xs) {
			hi = len(xs)
		}
		out = append(out, xs[lo:hi])
	}
	return out
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// roundTrip pushes v through its JSON encoding into out (a pointer to the
// zero value of the same type).
func roundTrip(t *testing.T, v, out any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
}

// TestMomentsMergePinsWholeStream is the sharding acceptance property for
// Moments: partials accumulated per shard and merged in shard order must
// reproduce the whole-stream accumulator — mean bit-identical (on exactly
// summable streams), variance within 1e-12 relative.
func TestMomentsMergePinsWholeStream(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(400)
		k := 1 + r.Intn(5)
		xs := dyadic(r, n)

		var whole Moments
		for _, x := range xs {
			whole.Add(x)
		}
		var merged Moments
		for _, part := range split(xs, k) {
			var p Moments
			for _, x := range part {
				p.Add(x)
			}
			// Exercise the JSON path on every partial: artifacts ship
			// exactly this state across the process boundary.
			var q Moments
			roundTrip(t, p, &q)
			merged.Merge(q)
		}
		if merged.N() != whole.N() {
			t.Fatalf("n=%d k=%d: merged N %d != %d", n, k, merged.N(), whole.N())
		}
		if merged.Mean() != whole.Mean() {
			t.Errorf("n=%d k=%d: merged mean %v not bit-identical to whole-stream %v",
				n, k, merged.Mean(), whole.Mean())
		}
		if e := relErr(merged.Variance(), whole.Variance()); e > 1e-12 {
			t.Errorf("n=%d k=%d: merged variance off by %v relative (> 1e-12)", n, k, e)
		}
	}
}

// TestMomentsMergeContinuousTolerance covers arbitrary float streams, where
// the merged sum may differ in the final ulp but never beyond 1e-12 relative.
func TestMomentsMergeContinuousTolerance(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		xs := continuous(r, 1+r.Intn(500))
		var whole, merged Moments
		for _, x := range xs {
			whole.Add(x)
		}
		for _, part := range split(xs, 3) {
			var p Moments
			for _, x := range part {
				p.Add(x)
			}
			merged.Merge(p)
		}
		if e := relErr(merged.Mean(), whole.Mean()); e > 1e-12 {
			t.Errorf("merged mean off by %v relative", e)
		}
		if e := relErr(merged.Variance(), whole.Variance()); e > 1e-12 {
			t.Errorf("merged variance off by %v relative", e)
		}
	}
}

// TestValueCountsMergePinsWholeStream: the multiset merge is lossless, so
// every order statistic of merged round-tripped partials must be bit-identical
// to the whole stream's.
func TestValueCountsMergePinsWholeStream(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			// A quantized series, like the campaign's grid-locked samples.
			xs[i] = float64(r.Intn(40)) * 0.25
		}
		var whole, merged ValueCounts
		for _, x := range xs {
			whole.Add(x)
		}
		for _, part := range split(xs, 1+r.Intn(4)) {
			var p ValueCounts
			for _, x := range part {
				p.Add(x)
			}
			var q ValueCounts
			roundTrip(t, p, &q)
			merged.Merge(q)
		}
		if merged.N() != whole.N() || merged.Distinct() != whole.Distinct() {
			t.Fatalf("merged N/distinct %d/%d != %d/%d", merged.N(), merged.Distinct(), whole.N(), whole.Distinct())
		}
		for _, p := range []float64{0, 5, 25, 50, 90, 95, 99, 100} {
			got, err1 := merged.Percentile(p)
			want, err2 := whole.Percentile(p)
			if err1 != nil || err2 != nil {
				t.Fatalf("percentile errors: %v %v", err1, err2)
			}
			if got != want {
				t.Errorf("P%v: merged %v != whole %v", p, got, want)
			}
		}
		for _, x := range []float64{0.25, 3, 7.5} {
			if merged.FractionBelow(x) != whole.FractionBelow(x) ||
				merged.FractionAbove(x) != whole.FractionAbove(x) {
				t.Errorf("fractions at %v diverge after merge", x)
			}
		}
	}
}

// TestDistMergePinsWholeStream checks the composite the study partials
// actually ship: exact mean (dyadic), exact quantiles, variance tolerance.
func TestDistMergePinsWholeStream(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		xs := dyadic(r, 1+r.Intn(250))
		var whole, merged Dist
		for _, x := range xs {
			whole.Add(x)
		}
		for _, part := range split(xs, 1+r.Intn(4)) {
			var p Dist
			for _, x := range part {
				p.Add(x)
			}
			var q Dist
			roundTrip(t, p, &q)
			merged.Merge(q)
		}
		if merged.Mean() != whole.Mean() {
			t.Errorf("merged Dist mean %v not bit-identical to %v", merged.Mean(), whole.Mean())
		}
		if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Errorf("merged extremes (%v,%v) != (%v,%v)", merged.Min(), merged.Max(), whole.Min(), whole.Max())
		}
		gs, err1 := merged.Summary()
		ws, err2 := whole.Summary()
		if err1 != nil || err2 != nil {
			t.Fatalf("summary errors: %v %v", err1, err2)
		}
		if gs.P50 != ws.P50 || gs.P90 != ws.P90 || gs.P95 != ws.P95 || gs.P99 != ws.P99 {
			t.Errorf("merged quantiles %+v != whole %+v", gs, ws)
		}
		if e := relErr(gs.StdDev*gs.StdDev, ws.StdDev*ws.StdDev); e > 1e-12 {
			t.Errorf("merged variance off by %v relative", e)
		}
	}
}

// TestMinMaxMergePinsWholeStream covers the extremes accumulator's merge +
// round-trip.
func TestMinMaxMergePinsWholeStream(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := continuous(r, 333)
	var wholeM, mergedM MinMax
	for _, x := range xs {
		wholeM.Add(x)
	}
	for _, part := range split(xs, 4) {
		var pm MinMax
		for _, x := range part {
			pm.Add(x)
		}
		var qm MinMax
		roundTrip(t, pm, &qm)
		mergedM.Merge(qm)
	}
	gmin, _ := mergedM.Min()
	wmin, _ := wholeM.Min()
	gmax, _ := mergedM.Max()
	wmax, _ := wholeM.Max()
	if gmin != wmin || gmax != wmax || mergedM.N() != wholeM.N() {
		t.Errorf("MinMax merge diverged: (%v,%v,%d) != (%v,%v,%d)", gmin, gmax, mergedM.N(), wmin, wmax, wholeM.N())
	}
}

// TestAccumulatorJSONRoundTripEmptyAndResume: empty accumulators round-trip
// to working zero values, and accumulation can RESUME after a round trip with
// results identical to never having serialized.
func TestAccumulatorJSONRoundTripEmptyAndResume(t *testing.T) {
	var em Moments
	var got Moments
	roundTrip(t, em, &got)
	if got.N() != 0 || got.Mean() != 0 {
		t.Errorf("empty Moments round-trip: %+v", got)
	}

	var ev ValueCounts
	var gotV ValueCounts
	roundTrip(t, ev, &gotV)
	if gotV.N() != 0 {
		t.Errorf("empty ValueCounts round-trip: N=%d", gotV.N())
	}
	gotV.Add(1) // must be usable after decode

	r := rand.New(rand.NewSource(13))
	xs := dyadic(r, 100)
	var plain, resumed Dist
	for _, x := range xs[:50] {
		plain.Add(x)
		resumed.Add(x)
	}
	var thawed Dist
	roundTrip(t, resumed, &thawed)
	for _, x := range xs[50:] {
		plain.Add(x)
		thawed.Add(x)
	}
	if thawed.Mean() != plain.Mean() || thawed.N() != plain.N() {
		t.Errorf("resumed accumulation diverged: mean %v/%v n %d/%d",
			thawed.Mean(), plain.Mean(), thawed.N(), plain.N())
	}
	p1, _ := plain.Percentile(90)
	p2, _ := thawed.Percentile(90)
	if p1 != p2 {
		t.Errorf("resumed P90 %v != %v", p2, p1)
	}
}

// TestValueCountsNonFiniteRoundTrip: the quarantine counter survives the wire.
func TestValueCountsNonFiniteRoundTrip(t *testing.T) {
	var v ValueCounts
	v.Add(1)
	v.Add(math.NaN())
	var got ValueCounts
	roundTrip(t, v, &got)
	if _, err := got.Percentile(50); err == nil {
		t.Error("non-finite contamination lost in round trip")
	}
}

// TestValueCountsRejectsCorruptEncodings: decode validates the invariants the
// accumulator maintains, so a corrupt artifact fails loudly instead of
// producing silently-wrong statistics.
func TestValueCountsRejectsCorruptEncodings(t *testing.T) {
	for _, bad := range []string{
		`{"values":[1,2],"counts":[1]}`,               // length mismatch
		`{"values":[1],"counts":[0]}`,                 // non-positive count
		`{"values":[1],"counts":[-2]}`,                // negative count
		`{"values":[1,1],"counts":[1,1]}`,             // duplicate value
		`{"values":[1],"counts":[1],"non_finite":-1}`, // negative quarantine
	} {
		var v ValueCounts
		if err := json.Unmarshal([]byte(bad), &v); err == nil {
			t.Errorf("corrupt encoding accepted: %s", bad)
		}
	}
	var m Moments
	if err := json.Unmarshal([]byte(`{"n":-1}`), &m); err == nil {
		t.Error("negative-n Moments accepted")
	}
}
