package analysis

import (
	"math"
	"testing"
)

// MeanCI95 is the buffered reference for Online: the textbook
// two-pass formula — the mean as sum/n, then the sample variance from
// the summed squared deviations about that mean. It shares no
// arithmetic with Online's Welford recurrence beyond the final
// t-scaling, so agreement between the two is evidence, not tautology.
// It panics on empty input; a single observation yields Std = CI95 = 0.
func MeanCI95(data []float64) MeanCI {
	if len(data) == 0 {
		panic("analysis: MeanCI95 of empty data")
	}
	n := len(data)
	sum := 0.0
	for _, v := range data {
		sum += v
	}
	out := MeanCI{N: n, Mean: sum / float64(n)}
	if n < 2 {
		return out
	}
	ss := 0.0
	for _, v := range data {
		d := v - out.Mean
		ss += d * d
	}
	out.Std = math.Sqrt(ss / float64(n-1))
	out.CI95 = tCrit95(n-1) * out.Std / math.Sqrt(float64(n))
	return out
}

func TestMeanCI95(t *testing.T) {
	// 0..4: mean 2, sample std sqrt(2.5), df=4 -> t=2.776.
	got := MeanCI95([]float64{0, 1, 2, 3, 4})
	if got.N != 5 || got.Mean != 2 {
		t.Fatalf("N/mean wrong: %+v", got)
	}
	wantStd := math.Sqrt(2.5)
	if math.Abs(got.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %g, want %g", got.Std, wantStd)
	}
	wantCI := 2.776 * wantStd / math.Sqrt(5)
	if math.Abs(got.CI95-wantCI) > 1e-9 {
		t.Fatalf("ci95 = %g, want %g", got.CI95, wantCI)
	}
}

func TestMeanCI95SingleObservation(t *testing.T) {
	got := MeanCI95([]float64{7})
	if got.N != 1 || got.Mean != 7 || got.Std != 0 || got.CI95 != 0 {
		t.Fatalf("single observation must have zero spread: %+v", got)
	}
}

func TestMeanCI95PanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MeanCI95 must panic on empty data")
		}
	}()
	MeanCI95(nil)
}

func TestTCritMonotone(t *testing.T) {
	// Critical values shrink towards the normal 1.96 limit.
	prev := math.Inf(1)
	for _, df := range []int{1, 2, 5, 10, 30, 40, 60, 120, 1000} {
		c := tCrit95(df)
		if c > prev {
			t.Fatalf("tCrit95 not non-increasing at df=%d: %g > %g", df, c, prev)
		}
		prev = c
	}
	if got := tCrit95(1000); got != 1.960 {
		t.Fatalf("large-df critical value = %g, want 1.960", got)
	}
	if !math.IsNaN(tCrit95(0)) {
		t.Fatal("df<1 must be NaN")
	}
}
