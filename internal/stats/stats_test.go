package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1}, 0},
		{"typical", []float64{1, 2, 3, 4, 5}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestCV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, sd 2
	if got, err := CV(xs); err != nil || !almostEqual(got, 0.4, 1e-12) {
		t.Errorf("CV = %v (%v), want 0.4", got, err)
	}
	if _, err := CV([]float64{0, 0}); err != ErrZeroMean {
		t.Errorf("CV of zero-mean sample err = %v, want ErrZeroMean", err)
	}
	if _, err := CV([]float64{-1, 1}); err != ErrZeroMean {
		t.Errorf("CV of cancelling sample err = %v, want ErrZeroMean", err)
	}
	if _, err := CV(nil); err != ErrEmpty {
		t.Errorf("CV(nil) err = %v, want ErrEmpty", err)
	}
	// CV uses |mean| so a negative-mean sample still gets a positive CV.
	if got, err := CV([]float64{-4, -6}); err != nil || got <= 0 {
		t.Errorf("CV of negative sample = %v (%v), want > 0", got, err)
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	xs := []float64{3, -1, 7, 2}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if mn != -1 || mx != 7 {
		t.Errorf("Min/Max = %v/%v, want -1/7", mn, mx)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) succeeded, want error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) succeeded, want error")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestCI(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	ci, err := CI(xs, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ci.Lo, 5, 1e-9) || !almostEqual(ci.Hi, 95, 1e-9) {
		t.Errorf("90%% CI = [%v, %v], want [5, 95]", ci.Lo, ci.Hi)
	}
	if !almostEqual(ci.Mean, 50, 1e-9) {
		t.Errorf("CI mean = %v, want 50", ci.Mean)
	}
	if _, err := CI(nil, 0.9); err != ErrEmpty {
		t.Errorf("CI(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := CI(xs, 0); err == nil {
		t.Error("CI(level=0) succeeded, want error")
	}
	if _, err := CI(xs, 1); err == nil {
		t.Error("CI(level=1) succeeded, want error")
	}
}

func TestHistogramBasic(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.5, 0.9, 1.0}
	h, err := NewHistogram(xs, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 5 {
		t.Errorf("Total = %d, want 5", h.Total)
	}
	if h.Bins[0].Count != 2 { // 0.1 and 0.2 in [0,0.5); 0.5 goes to bin 1
		t.Errorf("bin0 count = %d, want 2", h.Bins[0].Count)
	}
	if h.Bins[0].Count+h.Bins[1].Count != 5 {
		t.Errorf("counts don't sum to total: %d + %d", h.Bins[0].Count, h.Bins[1].Count)
	}
	var fracSum float64
	for _, b := range h.Bins {
		fracSum += b.Fraction
	}
	if !almostEqual(fracSum, 1, 1e-12) {
		t.Errorf("fractions sum to %v, want 1", fracSum)
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	xs := []float64{-5, 0.5, 99}
	h, err := NewHistogram(xs, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins[0].Count != 1 {
		t.Errorf("low outlier not clamped into first bin: %+v", h.Bins)
	}
	if h.Bins[3].Count != 1 {
		t.Errorf("high outlier not clamped into last bin: %+v", h.Bins)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(nil, 1, 1, 3); err == nil {
		t.Error("empty range (lo == hi) accepted")
	}
	if _, err := NewHistogram(nil, 2, 1, 3); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := NewHistogram(nil, math.NaN(), 1, 3); err == nil {
		t.Error("NaN low bound accepted")
	}
	if _, err := NewHistogram(nil, 0, math.Inf(1), 3); err == nil {
		t.Error("infinite high bound accepted")
	}
	if _, err := NewHistogram([]float64{0.5, math.NaN()}, 0, 1, 3); err == nil {
		t.Error("NaN sample accepted")
	}
	if _, err := NewHistogram([]float64{math.Inf(-1)}, 0, 1, 3); err == nil {
		t.Error("infinite sample accepted")
	}
}

func TestHistogramMode(t *testing.T) {
	xs := []float64{0.1, 0.1, 0.1, 0.8}
	h, err := NewHistogram(xs, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	mode := h.Mode()
	if mode.Count != 3 || mode.Lo != 0 {
		t.Errorf("Mode = %+v, want first bin with count 3", mode)
	}
	var empty Histogram
	if got := empty.Mode(); got.Count != 0 {
		t.Errorf("Mode of empty histogram = %+v", got)
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{0.5, 1.0, 1.5, 2.0}
	if got := FractionBelow(xs, 1.0); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("FractionBelow = %v, want 0.25", got)
	}
	if got := FractionAbove(xs, 1.0); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("FractionAbove = %v, want 0.5", got)
	}
	if FractionBelow(nil, 1) != 0 || FractionAbove(nil, 1) != 0 {
		t.Error("fractions of empty sample should be 0")
	}
}

func TestQuickPercentileWithinBounds(t *testing.T) {
	f := func(raw []float64, p8 uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(p8) / 255 * 100
		v, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return v >= mn-1e-9 && v <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHistogramConservation(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		h, err := NewHistogram(xs, -1, 1, 8)
		if err != nil {
			return false
		}
		total := 0
		for _, b := range h.Bins {
			total += b.Count
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
