// Package analysis provides the histogram, series and table tooling the
// experiment drivers use to reproduce the paper's figures as printable
// data (weight/resistance/conductance distributions, tuning-iteration
// trends, aging curves).
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bin histogram over a closed interval.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
}

// NewHistogram bins data into the given number of equal-width bins over
// [min(data), max(data)]. It panics on empty data or bins < 1.
func NewHistogram(data []float64, bins int) Histogram {
	if len(data) == 0 {
		panic("analysis: histogram of empty data")
	}
	lo, hi := data[0], data[0]
	for _, v := range data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return NewHistogramRange(data, lo, hi, bins)
}

// NewHistogramRange bins data over [lo, hi]; values outside the range
// are clamped into the edge bins. hi may equal lo (single-bin spike).
func NewHistogramRange(data []float64, lo, hi float64, bins int) Histogram {
	if bins < 1 {
		panic(fmt.Sprintf("analysis: bins must be >= 1, got %d", bins))
	}
	if hi < lo {
		panic(fmt.Sprintf("analysis: histogram range inverted [%g, %g]", lo, hi))
	}
	h := Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	width := (hi - lo) / float64(bins)
	for _, v := range data {
		var idx int
		if width > 0 {
			idx = int((v - lo) / width)
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		h.Counts[idx]++
		h.N++
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*width
}

// MassBelow returns the fraction of samples in bins whose center is
// below x.
func (h Histogram) MassBelow(x float64) float64 {
	if h.N == 0 {
		return 0
	}
	total := 0
	for i, c := range h.Counts {
		if h.BinCenter(i) < x {
			total += c
		}
	}
	return float64(total) / float64(h.N)
}

// Render draws the histogram as ASCII bars, one row per bin.
func (h Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if max > 0 {
			bar = c * width / max
		}
		fmt.Fprintf(&b, "%12.5g | %s %d\n", h.BinCenter(i), strings.Repeat("#", bar), c)
	}
	return b.String()
}

// Series is one named data series (a figure curve).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// AddPoint appends one (x, y) sample.
func (s *Series) AddPoint(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Render prints the series as aligned x/y rows.
func (s Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for i := range s.X {
		fmt.Fprintf(&b, "%14.6g %14.6g\n", s.X[i], s.Y[i])
	}
	return b.String()
}

// Summary holds order statistics of a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, Median, Max   float64
	P05, P25, P75, P95 float64
}

// Summarize computes order statistics. It panics on empty input.
func Summarize(data []float64) Summary {
	if len(data) == 0 {
		panic("analysis: summarize empty data")
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	s := Summary{N: len(sorted), Min: sorted[0], Max: sorted[len(sorted)-1]}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	varSum := 0.0
	for _, v := range sorted {
		d := v - s.Mean
		varSum += d * d
	}
	s.Std = math.Sqrt(varSum / float64(len(sorted)))
	s.Median = Quantile(sorted, 0.5)
	s.P05 = Quantile(sorted, 0.05)
	s.P25 = Quantile(sorted, 0.25)
	s.P75 = Quantile(sorted, 0.75)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted data by
// linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("analysis: quantile of empty data")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// Table renders rows with aligned columns for experiment reports.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
