// Streaming accumulators: one-pass, bounded-memory counterparts of the batch
// helpers in stats.go. The campaign aggregation pipeline (SPICE Monte-Carlo,
// the physics studies, the §4.6 CV analysis) folds each measurement into
// these as it is produced, so aggregation memory is O(1) per estimator —
// independent of the number of runs — instead of growing linearly with every
// per-run sample the old []float64 aggregates hoarded.
//
// # Accuracy contract
//
// Relative to the batch helpers (which remain the accuracy oracles in the
// property tests):
//
//   - Moments.Mean is bit-identical to Mean for the same accumulation order:
//     both reduce to the same running float64 sum divided by n. Merging
//     partial accumulators adds their partial sums, which associates the
//     float additions differently than one flat left-to-right sum — a
//     Merge-based mean is deterministic for a fixed merge order (the
//     drivers merge in catalog order) but may differ from the concatenated
//     batch mean in the last ulp.
//   - Moments.Variance uses Welford's recurrence; it matches the two-pass
//     batch Variance to ~1e-12 relative error (not bit-identical).
//   - ValueCounts quantiles, fractions, and histograms are EXACT: the
//     accumulator is a lossless multiset, so Percentile replays the batch
//     sort-and-interpolate computation value for value. Memory is bounded by
//     the number of DISTINCT sample values — constant for the quantized
//     series the campaign measures (integration-step timing grids, k/N bit
//     error rates, fixed command-grid latencies), never by the run count.
//
// Merging is deterministic: Merge folds partial accumulators in the order
// the caller chooses (the drivers merge in catalog/level order), so output
// is byte-identical at any worker count.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrZeroMean is returned by CV computations on a zero-mean sample, where
// the coefficient of variation is undefined.
var ErrZeroMean = errors.New("stats: CV of zero-mean sample")

// Moments is a one-pass mean/variance accumulator (Welford's algorithm plus
// a plain running sum). The zero value is ready to use.
type Moments struct {
	n    int
	sum  float64 // running sum in accumulation order: Mean matches batch Mean bit-for-bit
	mean float64 // Welford running mean (numerically stable center for m2)
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one sample.
//
//detlint:hotpath witness=TestAccumulatorAddAllocsFree
func (m *Moments) Add(x float64) {
	m.n++
	m.sum += x
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Merge folds another accumulator into m (Chan et al.'s parallel update).
// Merging in a fixed order yields deterministic results at any worker count.
func (m *Moments) Merge(o Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	n1, n2 := float64(m.n), float64(o.n)
	d := o.mean - m.mean
	m.mean += d * n2 / (n1 + n2)
	m.m2 += o.m2 + d*d*n1*n2/(n1+n2)
	m.sum += o.sum
	m.n += o.n
}

// N returns the sample count.
func (m Moments) N() int { return m.n }

// Sum returns the running sum.
func (m Moments) Sum() float64 { return m.sum }

// Mean returns the arithmetic mean (0 for an empty accumulator, like the
// batch Mean).
func (m Moments) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Variance returns the population variance (division by n), 0 for fewer
// than two samples, like the batch Variance.
func (m Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the population standard deviation.
func (m Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// CV returns the coefficient of variation (stddev/|mean|). It returns
// ErrEmpty for an empty accumulator and ErrZeroMean when the mean is zero.
func (m Moments) CV() (float64, error) {
	if m.n == 0 {
		return 0, ErrEmpty
	}
	mean := m.Mean()
	if mean == 0 {
		return 0, ErrZeroMean
	}
	return m.StdDev() / math.Abs(mean), nil
}

// MinMax tracks the running extremes of a stream. The zero value is ready
// to use.
type MinMax struct {
	n        int
	min, max float64
}

// Add folds one sample.
//
//detlint:hotpath witness=TestAccumulatorAddAllocsFree
func (m *MinMax) Add(x float64) {
	if m.n == 0 || x < m.min {
		m.min = x
	}
	if m.n == 0 || x > m.max {
		m.max = x
	}
	m.n++
}

// Merge folds another accumulator into m.
func (m *MinMax) Merge(o MinMax) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.n += o.n
}

// N returns the sample count.
func (m MinMax) N() int { return m.n }

// Min returns the smallest sample, or ErrEmpty.
func (m MinMax) Min() (float64, error) {
	if m.n == 0 {
		return 0, ErrEmpty
	}
	return m.min, nil
}

// Max returns the largest sample, or ErrEmpty.
func (m MinMax) Max() (float64, error) {
	if m.n == 0 {
		return 0, ErrEmpty
	}
	return m.max, nil
}

// Fraction counts how much of a stream falls strictly below / strictly
// above a fixed threshold, the streaming form of FractionBelow/FractionAbove.
type Fraction struct {
	Threshold    float64
	n            int
	below, above int
}

// NewFraction returns a Fraction accumulator for the given threshold.
func NewFraction(threshold float64) Fraction { return Fraction{Threshold: threshold} }

// Add folds one sample.
//
//detlint:hotpath witness=TestAccumulatorAddAllocsFree
func (f *Fraction) Add(x float64) {
	f.n++
	if x < f.Threshold {
		f.below++
	} else if x > f.Threshold {
		f.above++
	}
}

// Merge folds another accumulator into f. It returns an error when the
// thresholds differ, since mixed-threshold counts are meaningless.
func (f *Fraction) Merge(o Fraction) error {
	if f.Threshold != o.Threshold {
		return fmt.Errorf("stats: merging Fraction accumulators with thresholds %v and %v", f.Threshold, o.Threshold)
	}
	f.n += o.n
	f.below += o.below
	f.above += o.above
	return nil
}

// N returns the sample count.
func (f Fraction) N() int { return f.n }

// Below returns the fraction strictly below the threshold (0 when empty).
func (f Fraction) Below() float64 {
	if f.n == 0 {
		return 0
	}
	return float64(f.below) / float64(f.n)
}

// Above returns the fraction strictly above the threshold (0 when empty).
func (f Fraction) Above() float64 {
	if f.n == 0 {
		return 0
	}
	return float64(f.above) / float64(f.n)
}

// ValueCounts is an exact streaming multiset: it counts occurrences per
// distinct float64 value, so every order statistic of the stream can be
// reproduced bit-for-bit without retaining the samples. Memory is bounded by
// the number of distinct values — for the campaign's quantized measurement
// series (threshold crossings on a fixed integration grid, k/N bit error
// rates, command-grid latencies) that bound is a property of the grid, not
// of the run count. The zero value is ready to use.
//
// Non-finite samples are counted separately (NaN map keys are unusable and
// batch order statistics over them are undefined); the query methods report
// an error when any were seen.
type ValueCounts struct {
	n         int
	counts    map[float64]int
	nonFinite int
}

// Add folds one sample.
//
//detlint:hotpath witness=TestDistAggregationAllocatesO1
func (v *ValueCounts) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		v.nonFinite++
		return
	}
	if v.counts == nil {
		v.counts = make(map[float64]int) //detlint:ignore hotalloc one-time lazy init, amortized to 0 allocs/run
	}
	v.counts[x]++
	v.n++
}

// Merge folds another multiset into v.
func (v *ValueCounts) Merge(o ValueCounts) {
	v.nonFinite += o.nonFinite
	if o.n == 0 {
		return
	}
	if v.counts == nil {
		v.counts = make(map[float64]int, len(o.counts))
	}
	for x, c := range o.counts {
		v.counts[x] += c
	}
	v.n += o.n
}

// N returns the finite sample count.
func (v ValueCounts) N() int { return v.n }

// Distinct returns the number of distinct finite values seen — the memory
// footprint of the accumulator in map entries.
func (v ValueCounts) Distinct() int { return len(v.counts) }

// err reports the conditions under which order statistics are unavailable.
func (v ValueCounts) err() error {
	if v.nonFinite > 0 {
		return fmt.Errorf("stats: %d non-finite sample(s) in stream", v.nonFinite)
	}
	if v.n == 0 {
		return ErrEmpty
	}
	return nil
}

// sorted returns the distinct values in ascending order with their counts.
func (v ValueCounts) sorted() ([]float64, []int) {
	vals := make([]float64, 0, len(v.counts))
	for x := range v.counts {
		vals = append(vals, x)
	}
	sort.Float64s(vals)
	cnts := make([]int, len(vals))
	for i, x := range vals {
		cnts[i] = v.counts[x]
	}
	return vals, cnts
}

// at returns the sample at 0-based rank r of the sorted multiset.
func at(vals []float64, cnts []int, r int) float64 {
	for i, c := range cnts {
		if r < c {
			return vals[i]
		}
		r -= c
	}
	return vals[len(vals)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) with the same
// closest-rank linear interpolation as the batch Percentile — bit-identical
// to sorting the full sample.
func (v ValueCounts) Percentile(p float64) (float64, error) {
	if err := v.err(); err != nil {
		return 0, err
	}
	vals, cnts := v.sorted()
	return v.percentileSorted(vals, cnts, p)
}

// percentileSorted is Percentile over an already-materialized sorted view,
// so multi-quantile queries (Summary, CI) sort the multiset once.
func (v ValueCounts) percentileSorted(vals []float64, cnts []int, p float64) (float64, error) {
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	if v.n == 1 {
		return vals[0], nil
	}
	rank := p / 100 * float64(v.n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return at(vals, cnts, lo), nil
	}
	frac := rank - float64(lo)
	return at(vals, cnts, lo)*(1-frac) + at(vals, cnts, hi)*frac, nil
}

// Min returns the smallest sample, or an error (ErrEmpty / non-finite).
func (v ValueCounts) Min() (float64, error) {
	if err := v.err(); err != nil {
		return 0, err
	}
	vals, _ := v.sorted()
	return vals[0], nil
}

// Max returns the largest sample, or an error (ErrEmpty / non-finite).
func (v ValueCounts) Max() (float64, error) {
	if err := v.err(); err != nil {
		return 0, err
	}
	vals, _ := v.sorted()
	return vals[len(vals)-1], nil
}

// Range returns both extremes with a single pass over the distinct values.
func (v ValueCounts) Range() (lo, hi float64, err error) {
	if err := v.err(); err != nil {
		return 0, 0, err
	}
	first := true
	for x := range v.counts {
		if first || x < lo {
			lo = x
		}
		if first || x > hi {
			hi = x
		}
		first = false
	}
	return lo, hi, nil
}

// FractionBelow returns the fraction of samples strictly below x (0 when
// empty, like the batch helper).
func (v ValueCounts) FractionBelow(x float64) float64 {
	if v.n == 0 {
		return 0
	}
	n := 0
	for val, c := range v.counts {
		if val < x {
			n += c
		}
	}
	return float64(n) / float64(v.n)
}

// FractionAbove returns the fraction of samples strictly above x.
func (v ValueCounts) FractionAbove(x float64) float64 {
	if v.n == 0 {
		return 0
	}
	n := 0
	for val, c := range v.counts {
		if val > x {
			n += c
		}
	}
	return float64(n) / float64(v.n)
}

// Histogram bins the multiset into n equal-width buckets spanning [lo, hi]
// with the same clamping as NewHistogram — identical counts and fractions to
// binning the raw samples.
func (v ValueCounts) Histogram(lo, hi float64, n int) (Histogram, error) {
	if v.nonFinite > 0 {
		return Histogram{}, fmt.Errorf("stats: %d non-finite sample(s) in stream", v.nonFinite)
	}
	h, err := NewHistogram(nil, lo, hi, n)
	if err != nil {
		return Histogram{}, err
	}
	h.Total = v.n
	width := (hi - lo) / float64(n)
	for x, c := range v.counts {
		idx := int((x - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		h.Bins[idx].Count += c
	}
	if h.Total > 0 {
		for i := range h.Bins {
			h.Bins[i].Fraction = float64(h.Bins[i].Count) / float64(h.Total)
		}
	}
	return h, nil
}

// StreamingHistogram is a fixed-bin histogram accumulator: O(bins) memory
// regardless of the stream length, for when the value range is known up
// front and the lossless ValueCounts multiset is unnecessary.
type StreamingHistogram struct {
	lo, hi float64
	bins   []int
	total  int
}

// NewStreamingHistogram returns an accumulator with n equal-width buckets
// spanning [lo, hi]; out-of-range samples clamp into the edge bins, exactly
// like NewHistogram.
func NewStreamingHistogram(lo, hi float64, n int) (*StreamingHistogram, error) {
	if _, err := NewHistogram(nil, lo, hi, n); err != nil {
		return nil, err
	}
	return &StreamingHistogram{lo: lo, hi: hi, bins: make([]int, n)}, nil
}

// Add folds one sample. Non-finite samples are rejected with an error.
func (s *StreamingHistogram) Add(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("stats: non-finite histogram sample %v", x)
	}
	n := len(s.bins)
	width := (s.hi - s.lo) / float64(n)
	idx := int((x - s.lo) / width)
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	s.bins[idx]++
	s.total++
	return nil
}

// Merge folds another accumulator into s. The bin layouts must match.
func (s *StreamingHistogram) Merge(o *StreamingHistogram) error {
	if o == nil {
		return nil
	}
	if s.lo != o.lo || s.hi != o.hi || len(s.bins) != len(o.bins) {
		return errors.New("stats: merging streaming histograms with different bin layouts")
	}
	for i, c := range o.bins {
		s.bins[i] += c
	}
	s.total += o.total
	return nil
}

// N returns the sample count.
func (s *StreamingHistogram) N() int { return s.total }

// Histogram materializes the accumulated counts in the batch Histogram
// shape, identical to NewHistogram over the same samples.
func (s *StreamingHistogram) Histogram() Histogram {
	n := len(s.bins)
	h := Histogram{Bins: make([]Bin, n), Total: s.total}
	width := (s.hi - s.lo) / float64(n)
	for i := range h.Bins {
		h.Bins[i].Lo = s.lo + float64(i)*width
		h.Bins[i].Hi = s.lo + float64(i+1)*width
		h.Bins[i].Count = s.bins[i]
		if s.total > 0 {
			h.Bins[i].Fraction = float64(s.bins[i]) / float64(s.total)
		}
	}
	return h
}

// Dist is the streaming distribution summary the campaign aggregates use:
// exact mean (accumulation order), exact min/max, exact quantiles and
// fractions via the lossless ValueCounts multiset, and Welford variance —
// all in one pass, with memory bounded by the number of distinct sample
// values rather than the sample count. The zero value is ready to use.
type Dist struct {
	Moments Moments
	Counts  ValueCounts
}

// Add folds one sample. Non-finite samples are quarantined consistently:
// they are excluded from the moments as well as the order statistics (so
// N() and Mean() never disagree with the quantiles about the population),
// counted by Counts, and reported as an error by Summary and the
// order-statistic queries.
//
//detlint:hotpath witness=TestDistAggregationAllocatesO1
func (d *Dist) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		d.Counts.Add(x) // records the non-finite count only
		return
	}
	d.Moments.Add(x)
	d.Counts.Add(x)
}

// Merge folds another distribution into d. Merge order fixes the floating-
// point summation order of Mean; the drivers merge in catalog/level order so
// results are identical at any worker count.
func (d *Dist) Merge(o Dist) {
	d.Moments.Merge(o.Moments)
	d.Counts.Merge(o.Counts)
}

// N returns the sample count.
func (d Dist) N() int { return d.Moments.N() }

// Mean returns the arithmetic mean (0 when empty).
func (d Dist) Mean() float64 { return d.Moments.Mean() }

// Min returns the smallest sample, or 0 when empty (the batch drivers'
// convention for absent measurements).
func (d Dist) Min() float64 {
	v, err := d.Counts.Min()
	if err != nil {
		return 0
	}
	return v
}

// Max returns the largest sample, or 0 when empty.
func (d Dist) Max() float64 {
	v, err := d.Counts.Max()
	if err != nil {
		return 0
	}
	return v
}

// Percentile returns the exact p-th percentile of the stream.
func (d Dist) Percentile(p float64) (float64, error) { return d.Counts.Percentile(p) }

// FractionBelow returns the exact fraction of samples strictly below x.
func (d Dist) FractionBelow(x float64) float64 { return d.Counts.FractionBelow(x) }

// FractionAbove returns the exact fraction of samples strictly above x.
func (d Dist) FractionAbove(x float64) float64 { return d.Counts.FractionAbove(x) }

// CV returns the coefficient of variation of the stream.
func (d Dist) CV() (float64, error) { return d.Moments.CV() }

// CI returns the empirical central confidence interval covering the given
// fraction of the stream, like the batch CI.
func (d Dist) CI(level float64) (ConfidenceInterval, error) {
	if d.N() == 0 {
		return ConfidenceInterval{}, ErrEmpty
	}
	if level <= 0 || level >= 1 {
		return ConfidenceInterval{}, errors.New("stats: confidence level must be in (0,1)")
	}
	if err := d.Counts.err(); err != nil {
		return ConfidenceInterval{}, err
	}
	vals, cnts := d.Counts.sorted()
	tail := (1 - level) / 2 * 100
	lo, err := d.Counts.percentileSorted(vals, cnts, tail)
	if err != nil {
		return ConfidenceInterval{}, err
	}
	hi, err := d.Counts.percentileSorted(vals, cnts, 100-tail)
	if err != nil {
		return ConfidenceInterval{}, err
	}
	return ConfidenceInterval{Mean: d.Mean(), Lo: lo, Hi: hi}, nil
}

// Histogram bins the stream exactly like NewHistogram over the raw samples.
func (d Dist) Histogram(lo, hi float64, n int) (Histogram, error) {
	return d.Counts.Histogram(lo, hi, n)
}

// Summary materializes the descriptive statistics in the batch Summary
// shape. CV is 0 for a zero-mean stream, matching the historical Summarize
// behavior. It returns ErrEmpty for an empty stream and an error when any
// non-finite sample contaminated it.
func (d Dist) Summary() (Summary, error) {
	if err := d.Counts.err(); err != nil {
		return Summary{}, err
	}
	if d.N() == 0 {
		return Summary{}, ErrEmpty
	}
	cv, err := d.CV()
	if err != nil {
		cv = 0
	}
	// One sorted materialization serves every order statistic below.
	vals, cnts := d.Counts.sorted()
	p50, _ := d.Counts.percentileSorted(vals, cnts, 50)
	p90, _ := d.Counts.percentileSorted(vals, cnts, 90)
	p95, _ := d.Counts.percentileSorted(vals, cnts, 95)
	p99, _ := d.Counts.percentileSorted(vals, cnts, 99)
	return Summary{
		N:      d.N(),
		Mean:   d.Mean(),
		StdDev: d.Moments.StdDev(),
		CV:     cv,
		Min:    vals[0],
		Max:    vals[len(vals)-1],
		P50:    p50,
		P90:    p90,
		P95:    p95,
		P99:    p99,
	}, nil
}
