package mapping

import (
	"reflect"
	"strings"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/crossbar"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/nn"
	"memlife/internal/tensor"
	"memlife/internal/train"
)

// fixture builds a trained small MLP on crossbars plus an eval batch.
func fixture(t *testing.T) (*crossbar.MappedNetwork, *tensor.Tensor, []int) {
	t.Helper()
	cfg := dataset.SynthConfig{Classes: 4, TrainN: 160, TestN: 60, C: 3, H: 8, W: 8, Noise: 0.15, Seed: 41}
	trainDS, testDS := dataset.MustGenerate(cfg)
	net, err := nn.NewMLP("m", []int{trainDS.SampleSize(), 20, 4}, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Train(net, trainDS, testDS, train.Config{
		Epochs: 5, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	mn, err := crossbar.NewMappedNetwork(net, device.Params32(), aging.DefaultModel(), 300)
	if err != nil {
		t.Fatal(err)
	}
	b := testDS.Batches(testDS.Len(), nil)[0]
	return mn, b.X, b.Y
}

// ageLayer wears out part of one crossbar, including traced devices, so
// aged bounds differ across the array.
func ageLayer(cb *crossbar.Crossbar, cycles int) {
	p := cb.Params()
	for k := 0; k < cycles; k++ {
		for _, ij := range cb.TracedIndices() {
			d := cb.Device(ij[0], ij[1])
			d.Program(p.RminFresh, p.RminFresh, p.RmaxFresh)
			d.Program(p.RmaxFresh, p.RminFresh, p.RmaxFresh)
		}
		// Also age a diagonal stripe of untraced devices.
		for i := 0; i < cb.Rows && i < cb.Cols; i += 2 {
			d := cb.Device(i, i)
			d.Program(p.RminFresh, p.RminFresh, p.RmaxFresh)
			d.Program(p.RmaxFresh, p.RminFresh, p.RmaxFresh)
		}
	}
}

func TestFreshPolicyUsesFullRange(t *testing.T) {
	mn, x, y := fixture(t)
	res, err := Map(mn, Config{Policy: Fresh}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	p := device.Params32()
	for _, sel := range res.Selections {
		if sel.RLo != p.RminFresh || sel.RHi != p.RmaxFresh {
			t.Fatalf("fresh selection = [%g, %g], want full range", sel.RLo, sel.RHi)
		}
		if len(sel.Candidates) != 0 {
			t.Fatal("fresh policy must not evaluate candidates")
		}
	}
	if res.Stats.Pulses == 0 {
		t.Fatal("mapping must program devices")
	}
}

func TestFreshPolicyNeedsNoEvalData(t *testing.T) {
	mn, _, _ := fixture(t)
	if _, err := Map(mn, Config{Policy: Fresh}, nil, nil); err != nil {
		t.Fatalf("fresh mapping must work without eval data: %v", err)
	}
}

func TestAgingAwareRequiresEvalData(t *testing.T) {
	mn, _, _ := fixture(t)
	if _, err := Map(mn, Config{Policy: AgingAware}, nil, nil); err == nil {
		t.Fatal("aging-aware mapping must demand eval samples")
	}
}

func TestAgingAwareSelectsFreshRangeOnFreshArray(t *testing.T) {
	mn, x, y := fixture(t)
	res, err := Map(mn, Config{Policy: AgingAware}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	p := device.Params32()
	for _, sel := range res.Selections {
		if sel.RHi != p.RmaxFresh {
			t.Fatalf("fresh array: aging-aware must pick the fresh bound, got %g", sel.RHi)
		}
	}
}

func TestAgingAwareTracksAgedBounds(t *testing.T) {
	mn, x, y := fixture(t)
	ageLayer(mn.Layers[0].Crossbar, 4)
	res, err := Map(mn, Config{Policy: AgingAware}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	p := device.Params32()
	sel := res.Selections[0]
	if sel.RHi >= p.RmaxFresh {
		t.Fatalf("aged layer: selected upper bound %g must be below fresh %g", sel.RHi, p.RmaxFresh)
	}
	if len(sel.Candidates) == 0 {
		t.Fatal("aging-aware selection must record candidate scores")
	}
	// Chosen bound must be the argmax of the recorded candidates.
	best := sel.Candidates[0]
	for _, c := range sel.Candidates {
		if c.Accuracy > best.Accuracy {
			best = c
		}
	}
	if sel.RHi != best.RHi && best.Accuracy > candidateAcc(sel.Candidates, sel.RHi) {
		t.Fatalf("selected bound %g is not the best-scoring candidate %g", sel.RHi, best.RHi)
	}
	// Untouched layer keeps the fresh bound.
	if res.Selections[1].RHi != p.RmaxFresh {
		t.Fatal("unaged layer must keep the fresh bound")
	}
}

func candidateAcc(cs []CandidateScore, rHi float64) float64 {
	for _, c := range cs {
		if c.RHi == rHi {
			return c.Accuracy
		}
	}
	return -1
}

// TestAgingAwareBeatsFreshOnAgedArray is the core claim of Section IV-B:
// on a significantly aged array, accuracy right after aging-aware
// mapping exceeds accuracy after fresh-range mapping.
func TestAgingAwareBeatsFreshOnAgedArray(t *testing.T) {
	run := func(policy PolicyKind) float64 {
		mn, x, y := fixture(t)
		// Age every device of layer 0 so fresh mapping clips badly.
		cb := mn.Layers[0].Crossbar
		p := cb.Params()
		for i := 0; i < cb.Rows; i++ {
			for j := 0; j < cb.Cols; j++ {
				d := cb.Device(i, j)
				for k := 0; k < 4; k++ {
					d.Program(p.RminFresh, p.RminFresh, p.RmaxFresh)
					d.Program(p.RmaxFresh, p.RminFresh, p.RmaxFresh)
				}
			}
		}
		if _, err := Map(mn, Config{Policy: policy}, x, y); err != nil {
			t.Fatal(err)
		}
		acc, err := mn.Accuracy(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	freshAcc := run(Fresh)
	awareAcc := run(AgingAware)
	if awareAcc < freshAcc {
		t.Fatalf("aging-aware post-map accuracy %.3f must not lose to fresh %.3f", awareAcc, freshAcc)
	}
}

func TestWorstCaseAndMeanBoundPolicies(t *testing.T) {
	mn, x, y := fixture(t)
	ageLayer(mn.Layers[0].Crossbar, 4)
	worst, err := Map(mn, Config{Policy: WorstCase}, x, y)
	if err != nil {
		t.Fatal(err)
	}

	mn2, x2, y2 := fixture(t)
	ageLayer(mn2.Layers[0].Crossbar, 4)
	mean, err := Map(mn2, Config{Policy: MeanBound}, x2, y2)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Selections[0].RHi > mean.Selections[0].RHi {
		t.Fatalf("worst-case bound %g must be <= mean bound %g",
			worst.Selections[0].RHi, mean.Selections[0].RHi)
	}
}

func TestMinLevelsFloor(t *testing.T) {
	mn, x, y := fixture(t)
	// Age the traced devices of layer 0 to near-death.
	cb := mn.Layers[0].Crossbar
	p := cb.Params()
	for k := 0; k < 40; k++ {
		for _, ij := range cb.TracedIndices() {
			d := cb.Device(ij[0], ij[1])
			d.Program(p.RminFresh, p.RminFresh, p.RmaxFresh)
			d.Program(p.RmaxFresh, p.RminFresh, p.RmaxFresh)
		}
	}
	res, err := Map(mn, Config{Policy: WorstCase, MinLevels: 6}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Selections[0]
	minWidth := 5 * p.LevelSpacing()
	if sel.RHi-sel.RLo < minWidth-1e-9 {
		t.Fatalf("selected range width %g violates MinLevels floor %g", sel.RHi-sel.RLo, minWidth)
	}
}

func TestCandidateBoundsSubsampling(t *testing.T) {
	many := []float64{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		name string
		in   []float64
		max  int
		want []float64 // nil: only check the subsampling invariants
	}{
		// Subsampling keeps the extremes, strictly increasing.
		{name: "subsample", in: many, max: 4},
		// Few uniques pass through unchanged.
		{name: "dedup", in: []float64{2, 2, 5}, max: 8, want: []float64{2, 5}},
		// One candidate is the widest bound, the one ties would keep.
		{name: "single", in: many, max: 1, want: []float64{10}},
		{name: "single-unique", in: []float64{3, 3}, max: 1, want: []float64{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := candidateBounds(tc.in, tc.max)
			if tc.want != nil {
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("candidateBounds(%v, %d) = %v, want %v", tc.in, tc.max, got, tc.want)
				}
				return
			}
			if len(got) > tc.max {
				t.Fatalf("subsampled to %d candidates, want <= %d", len(got), tc.max)
			}
			if got[0] != tc.in[0] || got[len(got)-1] != tc.in[len(tc.in)-1] {
				t.Fatalf("subsampling must keep extremes, got %v", got)
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("candidates must be strictly increasing: %v", got)
				}
			}
		})
	}
}

// TestAgingAwareRejectsMismatchedEvalData requires an error, not a
// panic, when the eval labels do not match the eval batch.
func TestAgingAwareRejectsMismatchedEvalData(t *testing.T) {
	mn, x, y := fixture(t)
	if _, err := Map(mn, Config{Policy: AgingAware}, x, y[:len(y)-1]); err == nil {
		t.Fatal("aging-aware mapping must reject a label count that differs from the batch")
	}
}

// TestMapRejectsSingleMinLevel: a one-level range has zero width, so
// MinLevels 1 is an error under every policy rather than a degenerate
// mapping range; zero still means the default.
func TestMapRejectsSingleMinLevel(t *testing.T) {
	mn, x, y := fixture(t)
	for _, pol := range []PolicyKind{Fresh, AgingAware} {
		if _, err := Map(mn, Config{Policy: pol, MinLevels: 1}, x, y); err == nil || !strings.Contains(err.Error(), "min levels") {
			t.Fatalf("policy %v: MinLevels 1 must be rejected, got %v", pol, err)
		}
	}
	if _, err := Map(mn, Config{Policy: AgingAware}, x, y); err != nil {
		t.Fatalf("MinLevels 0 must resolve to the default: %v", err)
	}
}

func TestMapRefreshesHostNetwork(t *testing.T) {
	mn, x, y := fixture(t)
	if _, err := Map(mn, Config{Policy: Fresh}, x, y); err != nil {
		t.Fatal(err)
	}
	for _, l := range mn.Layers {
		eff := tensor.New(l.Crossbar.Rows, l.Crossbar.Cols)
		if err := l.Crossbar.ReadWeightsInto(eff); err != nil {
			t.Fatal(err)
		}
		for i, v := range l.Param.W.Data() {
			if v != eff.Data()[i] {
				t.Fatalf("layer %s: host network not refreshed after Map", l.Name)
			}
		}
	}
}
