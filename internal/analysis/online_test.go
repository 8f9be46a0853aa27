package analysis

import (
	"math"
	"math/rand"
	"testing"
)

// ulpDiff returns the distance in representable float64 steps between
// a and b (0 means bit-identical).
func ulpDiff(a, b float64) uint64 {
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	// Map to a monotone integer line (two's-complement trick for the
	// sign bit) so adjacent floats differ by 1.
	if ia < 0 {
		ia = math.MinInt64 - ia
	}
	if ib < 0 {
		ib = math.MinInt64 - ib
	}
	d := ia - ib
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// TestOnlineMatchesTwoPassOracle checks Online against the independent
// two-pass MeanCI95 oracle (ci_test.go) on randomized inputs. The mean
// is the same left-to-right sum divided by n on both sides, so it must
// match bit for bit. Std and CI95 come from different recurrences
// (Welford's M2 vs summed squared deviations), so they may differ by
// rounding; the allowed relative difference is n·κ·ε, where
// κ = sqrt(Σx² / Σ(x-mean)²) is the condition number of the variance —
// the order of Welford's error bound (Chan, Golub & LeVeque). A wrong
// denominator, a dropped term or a mis-scaled t value is off by far
// more than that.
func TestOnlineMatchesTwoPassOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 2, 3, 7, 64, 1000, 4096}
	scales := []float64{1, 1e-9, 1e9}
	for trial := 0; trial < 200; trial++ {
		n := sizes[trial%len(sizes)]
		scale := scales[trial%len(scales)]
		data := make([]float64, n)
		for i := range data {
			// Mix signs and magnitudes, with occasional offsets that
			// stress catastrophic cancellation in naive variance.
			data[i] = (rng.NormFloat64() + 100*float64(trial%3)) * scale
		}
		var o Online
		sumSq := 0.0
		for _, v := range data {
			o.Add(v)
			sumSq += v * v
		}
		ref := MeanCI95(data)
		got := o.MeanCI()
		if ref.N != got.N {
			t.Fatalf("trial %d: N mismatch: oracle %d online %d", trial, ref.N, got.N)
		}
		if d := ulpDiff(ref.Mean, got.Mean); d != 0 {
			t.Errorf("trial %d (n=%d): mean differs by %d ulps: oracle %v online %v",
				trial, n, d, ref.Mean, got.Mean)
		}
		if n < 2 {
			if got.Std != 0 || got.CI95 != 0 {
				t.Errorf("trial %d: single observation has spread %+v", trial, got)
			}
			continue
		}
		kappa := math.Sqrt(sumSq / (ref.Std * ref.Std * float64(n-1)))
		tol := float64(n) * kappa * 0x1p-52
		for _, c := range []struct {
			name     string
			ref, got float64
		}{
			{"std", ref.Std, got.Std},
			{"ci95", ref.CI95, got.CI95},
		} {
			if rel := math.Abs(c.got-c.ref) / c.ref; !(rel <= tol) {
				t.Errorf("trial %d (n=%d): %s relative difference %g exceeds %g: oracle %v online %v",
					trial, n, c.name, rel, tol, c.ref, c.got)
			}
		}
	}
}

func TestOnlineMinMax(t *testing.T) {
	var o Online
	for _, v := range []float64{3, -1, 4, -1, 5} {
		o.Add(v)
	}
	if o.N() != 5 || o.Min() != -1 || o.Max() != 5 {
		t.Fatalf("got n=%d min=%v max=%v, want 5/-1/5", o.N(), o.Min(), o.Max())
	}
}

func TestOnlineSingleObservation(t *testing.T) {
	var o Online
	o.Add(42)
	ci := o.MeanCI()
	if ci.N != 1 || ci.Mean != 42 || ci.Std != 0 || ci.CI95 != 0 {
		t.Fatalf("single observation: got %+v", ci)
	}
}

func TestOnlineEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MeanCI of an empty accumulator must panic")
		}
	}()
	var o Online
	o.MeanCI()
}
