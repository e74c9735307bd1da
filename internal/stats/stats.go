package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (division by n, not n-1),
// or 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CV returns the coefficient of variation (stddev/|mean|) of xs. The paper
// (§4.6) uses CV across ten measurement iterations to argue statistical
// significance. It returns ErrEmpty for an empty sample and ErrZeroMean for
// a zero-mean one, where the ratio is undefined (the old silent 0 let a
// meaningless series masquerade as a perfectly stable measurement).
func CV(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := Mean(xs)
	if m == 0 {
		return 0, ErrZeroMean
	}
	return StdDev(xs) / math.Abs(m), nil
}

// Min returns the smallest element of xs. It returns ErrEmpty for an empty
// sample.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs. It returns ErrEmpty for an empty
// sample.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns ErrEmpty for an empty
// sample and an error for out-of-range p.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// ConfidenceInterval holds a two-sided interval around a central estimate.
type ConfidenceInterval struct {
	Mean float64
	Lo   float64
	Hi   float64
}

// CI returns the empirical central confidence interval that covers the given
// fraction of the sample (e.g. level=0.90 gives the [5th, 95th] percentile
// band the paper shades around each curve). It returns ErrEmpty for an empty
// sample.
func CI(xs []float64, level float64) (ConfidenceInterval, error) {
	if len(xs) == 0 {
		return ConfidenceInterval{}, ErrEmpty
	}
	if level <= 0 || level >= 1 {
		return ConfidenceInterval{}, errors.New("stats: confidence level must be in (0,1)")
	}
	tail := (1 - level) / 2 * 100
	lo, err := Percentile(xs, tail)
	if err != nil {
		return ConfidenceInterval{}, err
	}
	hi, err := Percentile(xs, 100-tail)
	if err != nil {
		return ConfidenceInterval{}, err
	}
	return ConfidenceInterval{Mean: Mean(xs), Lo: lo, Hi: hi}, nil
}

// Bin is one bucket of a Histogram: the half-open value interval [Lo, Hi)
// (the last bin is closed) together with the raw count and the fraction of
// the total sample that falls inside.
type Bin struct {
	Lo       float64
	Hi       float64
	Count    int
	Fraction float64
}

// Histogram is a binned population distribution.
type Histogram struct {
	Bins  []Bin
	Total int
}

// NewHistogram bins xs into n equal-width buckets spanning [lo, hi]. Values
// outside the range are clamped into the edge bins so that population
// fractions always sum to 1, matching how the paper's population-density
// figures account for every tested row. It returns an error for a
// non-positive bin count, an empty or inverted range (lo >= hi), a
// non-finite bound, or a non-finite sample — previously a NaN silently
// landed in an implementation-defined bin instead of failing loudly.
func NewHistogram(xs []float64, lo, hi float64, n int) (Histogram, error) {
	if n <= 0 {
		return Histogram{}, errors.New("stats: histogram needs at least one bin")
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return Histogram{}, errors.New("stats: histogram range is not finite")
	}
	if hi <= lo {
		return Histogram{}, errors.New("stats: histogram range is empty")
	}
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return Histogram{}, fmt.Errorf("stats: non-finite histogram sample %v", x)
		}
	}
	h := Histogram{Bins: make([]Bin, n), Total: len(xs)}
	width := (hi - lo) / float64(n)
	for i := range h.Bins {
		h.Bins[i].Lo = lo + float64(i)*width
		h.Bins[i].Hi = lo + float64(i+1)*width
	}
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		h.Bins[idx].Count++
	}
	if h.Total > 0 {
		for i := range h.Bins {
			h.Bins[i].Fraction = float64(h.Bins[i].Count) / float64(h.Total)
		}
	}
	return h, nil
}

// Mode returns the bin with the highest count. For an empty histogram it
// returns the zero Bin.
func (h Histogram) Mode() Bin {
	var best Bin
	for _, b := range h.Bins {
		if b.Count > best.Count {
			best = b
		}
	}
	return best
}

// FractionBelow returns the fraction of xs strictly below the threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionAbove returns the fraction of xs strictly above the threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Summary bundles the descriptive statistics of one measured series; see
// Dist.Summary.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CV     float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P95    float64
	P99    float64
}
