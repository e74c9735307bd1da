package stats

import (
	"math"
	"math/rand" //detlint:ignore detsource test-local fixed-seed source, never reaches library code
	"testing"
	"testing/quick"
)

// finite filters the raw fuzz input down to usable samples.
func finite(raw []float64) []float64 {
	xs := make([]float64, 0, len(raw))
	for _, x := range raw {
		if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
			xs = append(xs, x)
		}
	}
	return xs
}

// relEqual compares within a relative tolerance scaled to the magnitudes.
func relEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestMomentsMatchesBatch pins the streaming moments to the batch oracles:
// the mean is bit-identical (same summation order), variance within 1e-12
// relative (Welford vs two-pass).
func TestMomentsMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := finite(raw)
		var m Moments
		for _, x := range xs {
			m.Add(x)
		}
		if m.N() != len(xs) {
			return false
		}
		if m.Mean() != Mean(xs) { // bit-identical, not just close
			return false
		}
		return relEqual(m.Variance(), Variance(xs), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMomentsCVMatchesBatch checks the CV of streaming moments against the
// batch CV, including the zero-mean and empty error cases.
func TestMomentsCVMatchesBatch(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	want, _ := CV(xs)
	got, err := m.CV()
	if err != nil || !relEqual(got, want, 1e-12) {
		t.Errorf("CV = %v (%v), want %v", got, err, want)
	}
	var zero Moments
	zero.Add(1)
	zero.Add(-1)
	if _, err := zero.CV(); err != ErrZeroMean {
		t.Errorf("zero-mean CV err = %v, want ErrZeroMean", err)
	}
	var empty Moments
	if _, err := empty.CV(); err != ErrEmpty {
		t.Errorf("empty CV err = %v, want ErrEmpty", err)
	}
}

// TestMomentsMergeMatchesWhole splits a sample at every position, merges the
// two partial accumulators, and compares against accumulating the whole
// stream: count and sum identical in structure, mean/variance within 1e-12.
func TestMomentsMergeMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	var whole Moments
	for _, x := range xs {
		whole.Add(x)
	}
	for cut := 0; cut <= len(xs); cut += 17 {
		var a, b Moments
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.N() != whole.N() {
			t.Fatalf("cut %d: N = %d, want %d", cut, a.N(), whole.N())
		}
		if !relEqual(a.Mean(), whole.Mean(), 1e-12) {
			t.Errorf("cut %d: mean %v vs %v", cut, a.Mean(), whole.Mean())
		}
		if !relEqual(a.Variance(), whole.Variance(), 1e-12) {
			t.Errorf("cut %d: variance %v vs %v", cut, a.Variance(), whole.Variance())
		}
	}
}

// TestMinMaxAndFractionMatchBatch pins the running extremes and threshold
// fractions to their batch counterparts.
func TestMinMaxAndFractionMatchBatch(t *testing.T) {
	f := func(raw []float64, thr float64) bool {
		xs := finite(raw)
		if math.IsNaN(thr) {
			thr = 0
		}
		var mm MinMax
		fr := NewFraction(thr)
		for _, x := range xs {
			mm.Add(x)
			fr.Add(x)
		}
		if len(xs) == 0 {
			_, errMin := mm.Min()
			_, errMax := mm.Max()
			return errMin == ErrEmpty && errMax == ErrEmpty && fr.Below() == 0 && fr.Above() == 0
		}
		wantMin, _ := Min(xs)
		wantMax, _ := Max(xs)
		gotMin, _ := mm.Min()
		gotMax, _ := mm.Max()
		return gotMin == wantMin && gotMax == wantMax &&
			fr.Below() == FractionBelow(xs, thr) && fr.Above() == FractionAbove(xs, thr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionMergeRejectsMixedThresholds(t *testing.T) {
	a, b := NewFraction(1), NewFraction(2)
	if err := a.Merge(b); err == nil {
		t.Error("merge of different thresholds accepted")
	}
	c := NewFraction(1)
	c.Add(0.5)
	c.Add(1.5)
	if err := a.Merge(c); err != nil || !almostEqual(a.Below(), 0.5, 1e-12) {
		t.Errorf("merge failed: %v, below %v", err, a.Below())
	}
}

// TestValueCountsPercentileExact is the load-bearing property of the exact
// multiset: its percentiles are BIT-IDENTICAL to sorting the raw sample and
// interpolating, for arbitrary (not just quantized) values.
func TestValueCountsPercentileExact(t *testing.T) {
	f := func(raw []float64, p8 uint8) bool {
		xs := finite(raw)
		var v ValueCounts
		for _, x := range xs {
			v.Add(x)
		}
		p := float64(p8) / 255 * 100
		want, errB := Percentile(xs, p)
		got, errS := v.Percentile(p)
		if len(xs) == 0 {
			return errB == ErrEmpty && errS == ErrEmpty
		}
		return errB == nil && errS == nil && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueCountsHistogramExact pins streamed binning to NewHistogram.
func TestValueCountsHistogramExact(t *testing.T) {
	f := func(raw []float64) bool {
		xs := finite(raw)
		var v ValueCounts
		for _, x := range xs {
			v.Add(x)
		}
		want, err := NewHistogram(xs, -2, 2, 6)
		if err != nil {
			return false
		}
		got, err := v.Histogram(-2, 2, 6)
		if err != nil {
			return false
		}
		if got.Total != want.Total {
			return false
		}
		for i := range want.Bins {
			if got.Bins[i] != want.Bins[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueCountsMergeOrderInvariant shards a sample into chunks and merges
// them in two different orders: the multiset — and hence every order
// statistic — must be identical, which is what lets the global Monte-Carlo
// run queue merge per-level partials deterministically.
func TestValueCountsMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = math.Round(rng.NormFloat64()*8) / 4 // quantized, with repeats
	}
	chunk := func(order []int) ValueCounts {
		var parts [5]ValueCounts
		for i, x := range xs {
			parts[i%5].Add(x)
		}
		var m ValueCounts
		for _, i := range order {
			m.Merge(parts[i])
		}
		return m
	}
	a := chunk([]int{0, 1, 2, 3, 4})
	b := chunk([]int{4, 2, 0, 3, 1})
	for _, p := range []float64{0, 10, 50, 90, 95, 99, 100} {
		va, erra := a.Percentile(p)
		vb, errb := b.Percentile(p)
		if erra != nil || errb != nil || va != vb {
			t.Errorf("P%v: %v (%v) vs %v (%v)", p, va, erra, vb, errb)
		}
	}
	if a.N() != len(xs) || a.Distinct() != b.Distinct() {
		t.Errorf("merge mismatch: N %d distinct %d vs %d", a.N(), a.Distinct(), b.Distinct())
	}
}

// TestValueCountsRejectsNonFinite checks the NaN/Inf bookkeeping.
func TestValueCountsRejectsNonFinite(t *testing.T) {
	var v ValueCounts
	v.Add(1)
	v.Add(math.NaN())
	if _, err := v.Percentile(50); err == nil {
		t.Error("percentile over a NaN-contaminated stream accepted")
	}
	if _, err := v.Min(); err == nil {
		t.Error("min over a NaN-contaminated stream accepted")
	}
	if _, _, err := v.Range(); err == nil {
		t.Error("range over a NaN-contaminated stream accepted")
	}
	if _, err := v.Histogram(0, 1, 2); err == nil {
		t.Error("histogram over a NaN-contaminated stream accepted")
	}
}

// TestDistNonFiniteConsistency: a non-finite sample must not poison the
// moments while being absent from the order statistics — it is quarantined
// everywhere and surfaced as an error by Summary and CI.
func TestDistNonFiniteConsistency(t *testing.T) {
	var d Dist
	d.Add(2)
	d.Add(math.NaN())
	d.Add(4)
	if d.N() != 2 || d.Mean() != 3 {
		t.Errorf("N/Mean = %d/%v, want 2/3 (NaN quarantined)", d.N(), d.Mean())
	}
	if _, err := d.Summary(); err == nil {
		t.Error("Summary over a NaN-contaminated stream accepted")
	}
	if _, err := d.CI(0.9); err == nil {
		t.Error("CI over a NaN-contaminated stream accepted")
	}
	var clean Dist
	clean.Add(math.Inf(1))
	if clean.N() != 0 || clean.Mean() != 0 {
		t.Errorf("Inf-only stream: N/Mean = %d/%v, want 0/0", clean.N(), clean.Mean())
	}
}

// TestValueCountsRange pins the single-pass extremes to Min/Max.
func TestValueCountsRange(t *testing.T) {
	var v ValueCounts
	for _, x := range []float64{3, -1, 7, 2, 7} {
		v.Add(x)
	}
	lo, hi, err := v.Range()
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("Range = %v, %v (%v), want -1, 7", lo, hi, err)
	}
	var empty ValueCounts
	if _, _, err := empty.Range(); err != ErrEmpty {
		t.Errorf("empty Range err = %v, want ErrEmpty", err)
	}
}

// TestDistSummaryMatchesBatch pins the composite accumulator's Summary to
// the batch oracles field by field.
func TestDistSummaryMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = math.Round(rng.NormFloat64()*100) / 10
	}
	var d Dist
	for _, x := range xs {
		d.Add(x)
	}
	s, err := d.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != len(xs) || s.Mean != Mean(xs) {
		t.Errorf("N/Mean = %d/%v, want %d/%v", s.N, s.Mean, len(xs), Mean(xs))
	}
	if !relEqual(s.StdDev, StdDev(xs), 1e-12) {
		t.Errorf("StdDev = %v, want %v", s.StdDev, StdDev(xs))
	}
	wantMin, _ := Min(xs)
	wantMax, _ := Max(xs)
	if s.Min != wantMin || s.Max != wantMax {
		t.Errorf("Min/Max = %v/%v, want %v/%v", s.Min, s.Max, wantMin, wantMax)
	}
	for _, q := range []struct {
		p   float64
		got float64
	}{{50, s.P50}, {90, s.P90}, {95, s.P95}, {99, s.P99}} {
		want, _ := Percentile(xs, q.p)
		if q.got != want {
			t.Errorf("P%v = %v, want %v (must be exact)", q.p, q.got, want)
		}
	}
	ci, err := d.CI(0.90)
	if err != nil {
		t.Fatal(err)
	}
	wantCI, _ := CI(xs, 0.90)
	if ci != wantCI {
		t.Errorf("CI = %+v, want %+v", ci, wantCI)
	}
	var empty Dist
	if _, err := empty.Summary(); err != ErrEmpty {
		t.Errorf("empty Summary err = %v, want ErrEmpty", err)
	}
}

// TestStreamingHistogramMatchesBatch pins the fixed-bin accumulator and its
// merge to NewHistogram.
func TestStreamingHistogramMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.Float64()*4 - 2 // includes clamped outliers vs [-1, 1]
	}
	want, err := NewHistogram(xs, -1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewStreamingHistogram(-1, 1, 8)
	b, _ := NewStreamingHistogram(-1, 1, 8)
	for i, x := range xs {
		h := a
		if i%2 == 1 {
			h = b
		}
		if err := h.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.Histogram()
	if got.Total != want.Total {
		t.Fatalf("total = %d, want %d", got.Total, want.Total)
	}
	for i := range want.Bins {
		if got.Bins[i] != want.Bins[i] {
			t.Errorf("bin %d = %+v, want %+v", i, got.Bins[i], want.Bins[i])
		}
	}
	if _, err := NewStreamingHistogram(1, 1, 4); err == nil {
		t.Error("lo == hi accepted")
	}
	if err := a.Add(math.NaN()); err == nil {
		t.Error("NaN sample accepted")
	}
	other, _ := NewStreamingHistogram(0, 1, 8)
	if err := a.Merge(other); err == nil {
		t.Error("mismatched bin layout merge accepted")
	}
}

// TestDistAggregationAllocatesO1 is the memory-bound acceptance property at
// the estimator level: folding a long quantized stream into a Dist performs
// no per-sample allocations once the distinct-value set is populated.
func TestDistAggregationAllocatesO1(t *testing.T) {
	var d Dist
	grid := make([]float64, 64)
	for i := range grid {
		grid[i] = 10 + float64(i)*0.025 // a fixed integration-step-like grid
	}
	for _, x := range grid {
		d.Add(x) // populate every distinct value
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		d.Add(grid[i%len(grid)])
		i++
	}); allocs > 0 {
		t.Errorf("Dist.Add allocates %v per sample on a populated grid, want 0", allocs)
	}
	if d.Counts.Distinct() != len(grid) {
		t.Errorf("distinct = %d, want %d", d.Counts.Distinct(), len(grid))
	}
}

// TestAccumulatorAddAllocsFree is the runtime witness for the scalar
// accumulators' //detlint:hotpath contract: a steady-state Add performs no
// heap allocation at all.
func TestAccumulatorAddAllocsFree(t *testing.T) {
	var m Moments
	var mm MinMax
	f := NewFraction(0.5)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		x := float64(i%7) * 0.25
		m.Add(x)
		mm.Add(x)
		f.Add(x)
		i++
	}); allocs > 0 {
		t.Errorf("scalar accumulator Add allocates %v per sample, want 0", allocs)
	}
}
