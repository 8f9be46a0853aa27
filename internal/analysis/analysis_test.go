package analysis

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramBasicBinning(t *testing.T) {
	h := NewHistogramRange([]float64{0, 0.1, 0.9, 1.0}, 0, 1, 2)
	if h.N != 4 {
		t.Fatalf("N = %d, want 4", h.N)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 2 {
		t.Fatalf("counts = %v, want [2 2]", h.Counts)
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h := NewHistogramRange([]float64{-5, 0.5, 99}, 0, 1, 4)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("outliers must land in edge bins: %v", h.Counts)
	}
}

func TestHistogramAutoRange(t *testing.T) {
	h := NewHistogram([]float64{2, 4, 6}, 2)
	if h.Lo != 2 || h.Hi != 6 {
		t.Fatalf("auto range = [%g, %g], want [2, 6]", h.Lo, h.Hi)
	}
}

func TestHistogramDegenerateRange(t *testing.T) {
	h := NewHistogramRange([]float64{3, 3, 3}, 3, 3, 4)
	if h.Counts[0] != 3 {
		t.Fatalf("all-equal data must land in bin 0: %v", h.Counts)
	}
}

func TestHistogramEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty data")
		}
	}()
	NewHistogram(nil, 4)
}

func TestBinCenterAndFractions(t *testing.T) {
	h := NewHistogramRange([]float64{0.25, 0.25, 0.75}, 0, 1, 2)
	if h.BinCenter(0) != 0.25 || h.BinCenter(1) != 0.75 {
		t.Fatalf("bin centers = %g, %g", h.BinCenter(0), h.BinCenter(1))
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.N != 3 {
		t.Fatalf("counts = %v of %d, want [2 1] of 3", h.Counts, h.N)
	}
}

func TestModeBinAndMassBelow(t *testing.T) {
	h := NewHistogramRange([]float64{0.1, 0.1, 0.1, 0.9}, 0, 1, 2)
	if got := h.MassBelow(0.5); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("mass below 0.5 = %g, want 0.75", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogramRange([]float64{0.1, 0.9, 0.9}, 0, 1, 2)
	out := h.Render(10)
	if !strings.Contains(out, "#") {
		t.Fatal("render must draw bars")
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Fatal("render must emit one row per bin")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "iters"
	s.AddPoint(1, 10)
	s.AddPoint(2, 20)
	if len(s.X) != 2 || s.Y[1] != 20 {
		t.Fatalf("series = %+v", s)
	}
	out := s.Render()
	if !strings.Contains(out, "# iters") || !strings.Contains(out, "20") {
		t.Fatalf("render output missing content:\n%s", out)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	want := math.Sqrt(2)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std = %g, want %g", s.Std, want)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Fatalf("quartiles = %g/%g, want 2/4", s.P25, s.P75)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Quantile(sorted, 0.5); got != 5 {
		t.Fatalf("median of [0,10] = %g, want 5", got)
	}
	if Quantile(sorted, 0) != 0 || Quantile(sorted, 1) != 10 {
		t.Fatal("extreme quantiles must return extremes")
	}
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Fatal("single-element quantile")
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"name", "acc"}, [][]string{
		{"T+T", "0.81"},
		{"ST+AT", "0.80"},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table must have header, separator and 2 rows, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "acc") {
		t.Fatalf("header malformed: %q", lines[0])
	}
	if !strings.Contains(lines[3], "ST+AT") {
		t.Fatalf("row content missing: %q", lines[3])
	}
}
