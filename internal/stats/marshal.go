// JSON round-tripping for the streaming accumulators, so study partials can
// leave the process as shard artifacts and merge back elsewhere. Every
// accumulator (Moments, MinMax, Fraction, ValueCounts,
// StreamingHistogram, and the composite Dist via its exported fields)
// serializes its full internal state: Unmarshal(Marshal(a)) reproduces an
// accumulator whose every query — and every future Add or Merge — behaves
// identically to the original. encoding/json emits the shortest decimal that
// parses back to the identical float64, so the round trip is bit-exact.
//
// Quantiles stay exact across shards because Dist carries them as the
// ValueCounts multiset, whose merge is lossless; for the campaign's
// grid-quantized series its memory is bounded by the grid.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// momentsJSON is the wire form of Moments. All four state variables are
// required to resume accumulation: sum for the exact accumulation-order mean,
// mean/m2 for the Welford variance recurrence.
type momentsJSON struct {
	N    int     `json:"n"`
	Sum  float64 `json:"sum"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// MarshalJSON encodes the accumulator's full state.
func (m Moments) MarshalJSON() ([]byte, error) {
	return json.Marshal(momentsJSON{N: m.n, Sum: m.sum, Mean: m.mean, M2: m.m2})
}

// UnmarshalJSON restores an accumulator previously encoded by MarshalJSON.
func (m *Moments) UnmarshalJSON(b []byte) error {
	var w momentsJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.N < 0 {
		return fmt.Errorf("stats: Moments with negative n %d", w.N)
	}
	*m = Moments{n: w.N, sum: w.Sum, mean: w.Mean, m2: w.M2}
	return nil
}

type minMaxJSON struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// MarshalJSON encodes the accumulator's full state.
func (m MinMax) MarshalJSON() ([]byte, error) {
	return json.Marshal(minMaxJSON{N: m.n, Min: m.min, Max: m.max})
}

// UnmarshalJSON restores an accumulator previously encoded by MarshalJSON.
func (m *MinMax) UnmarshalJSON(b []byte) error {
	var w minMaxJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.N < 0 {
		return fmt.Errorf("stats: MinMax with negative n %d", w.N)
	}
	*m = MinMax{n: w.N, min: w.Min, max: w.Max}
	return nil
}

type fractionJSON struct {
	Threshold float64 `json:"threshold"`
	N         int     `json:"n"`
	Below     int     `json:"below"`
	Above     int     `json:"above"`
}

// MarshalJSON encodes the accumulator's full state.
func (f Fraction) MarshalJSON() ([]byte, error) {
	return json.Marshal(fractionJSON{Threshold: f.Threshold, N: f.n, Below: f.below, Above: f.above})
}

// UnmarshalJSON restores an accumulator previously encoded by MarshalJSON.
func (f *Fraction) UnmarshalJSON(b []byte) error {
	var w fractionJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.N < 0 || w.Below < 0 || w.Above < 0 || w.Below+w.Above > w.N {
		return fmt.Errorf("stats: inconsistent Fraction counts n=%d below=%d above=%d", w.N, w.Below, w.Above)
	}
	*f = Fraction{Threshold: w.Threshold, n: w.N, below: w.Below, above: w.Above}
	return nil
}

// valueCountsJSON is the wire form of ValueCounts: the distinct values in
// ascending order with their parallel counts (JSON objects cannot key on
// float64, and the sorted encoding keeps artifact bytes deterministic).
// The finite-sample total is derived from the counts on decode.
type valueCountsJSON struct {
	Values    []float64 `json:"values"`
	Counts    []int     `json:"counts"`
	NonFinite int       `json:"non_finite,omitempty"`
}

// MarshalJSON encodes the multiset as sorted (value, count) pairs.
func (v ValueCounts) MarshalJSON() ([]byte, error) {
	vals, cnts := v.sorted()
	if vals == nil {
		vals, cnts = []float64{}, []int{}
	}
	return json.Marshal(valueCountsJSON{Values: vals, Counts: cnts, NonFinite: v.nonFinite})
}

// UnmarshalJSON restores a multiset previously encoded by MarshalJSON.
func (v *ValueCounts) UnmarshalJSON(b []byte) error {
	var w valueCountsJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if len(w.Values) != len(w.Counts) {
		return fmt.Errorf("stats: ValueCounts with %d values but %d counts", len(w.Values), len(w.Counts))
	}
	if w.NonFinite < 0 {
		return fmt.Errorf("stats: ValueCounts with negative non-finite count %d", w.NonFinite)
	}
	out := ValueCounts{nonFinite: w.NonFinite}
	for i, x := range w.Values {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("stats: ValueCounts with non-finite value %v", x)
		}
		c := w.Counts[i]
		if c <= 0 {
			return fmt.Errorf("stats: ValueCounts with non-positive count %d for value %v", c, x)
		}
		if out.counts == nil {
			out.counts = make(map[float64]int, len(w.Values))
		}
		if _, dup := out.counts[x]; dup {
			return fmt.Errorf("stats: ValueCounts with duplicate value %v", x)
		}
		out.counts[x] = c
		out.n += c
	}
	*v = out
	return nil
}

// streamingHistogramJSON is the wire form of StreamingHistogram. The total is
// derived from the bins on decode.
type streamingHistogramJSON struct {
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Bins []int   `json:"bins"`
}

// MarshalJSON encodes the accumulator's full state.
func (s *StreamingHistogram) MarshalJSON() ([]byte, error) {
	bins := s.bins
	if bins == nil {
		bins = []int{}
	}
	return json.Marshal(streamingHistogramJSON{Lo: s.lo, Hi: s.hi, Bins: bins})
}

// UnmarshalJSON restores an accumulator previously encoded by MarshalJSON.
func (s *StreamingHistogram) UnmarshalJSON(b []byte) error {
	var w streamingHistogramJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if _, err := NewHistogram(nil, w.Lo, w.Hi, len(w.Bins)); err != nil {
		return fmt.Errorf("stats: decoding StreamingHistogram: %w", err)
	}
	out := StreamingHistogram{lo: w.Lo, hi: w.Hi, bins: make([]int, len(w.Bins))}
	for i, c := range w.Bins {
		if c < 0 {
			return fmt.Errorf("stats: StreamingHistogram with negative bin count %d", c)
		}
		out.bins[i] = c
		out.total += c
	}
	*s = out
	return nil
}
