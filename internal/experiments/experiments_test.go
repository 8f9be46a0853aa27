package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"memlife/internal/analysis"
	"memlife/internal/lifetime"
	"memlife/internal/nn"
	"memlife/internal/train"
)

var testOpt = Options{Fast: true, Seed: 1}

func TestRegistryCompleteness(t *testing.T) {
	// Every table and figure of the paper's evaluation must have a
	// registered driver (DESIGN.md section 4).
	want := []string{
		"table1", "table2",
		"fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig10vgg", "fig11",
		"ablation-stress", "ablation-tracing", "ablation-levels", "ablation-policy",
		"related-work", "differential", "temperature", "fault-sweep",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("registry has %d experiments, want at least %d", len(All()), len(want))
	}
	for _, e := range All() {
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q must have a title and a runner", e.ID)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("no-such-experiment"); ok {
		t.Fatal("unknown ids must not resolve")
	}
}

func TestLeNetBundleCachedAndTrained(t *testing.T) {
	b1, err := LeNetBundle(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if b1.NormalAcc < 0.5 {
		t.Fatalf("conventional LeNet accuracy %.3f too low; fixture broken", b1.NormalAcc)
	}
	if b1.SkewedAcc < b1.NormalAcc-0.2 {
		t.Fatalf("skewed LeNet accuracy %.3f collapsed vs %.3f", b1.SkewedAcc, b1.NormalAcc)
	}
	b2, err := LeNetBundle(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("bundles must be cached per (fast, seed)")
	}
}

// TestBundleNetworksKeepNoTrainingState: the cached networks are
// read-only for the life of the process, so they must not carry the
// last training batch's forward state (im2col matrices, dense input,
// ReLU mask, max-pool argmax) or its gradients. The layer fields are
// unexported, so they are read by reflection; a renamed field fails
// the test instead of passing it.
func TestBundleNetworksKeepNoTrainingState(t *testing.T) {
	b, err := LeNetBundle(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string][]string{
		"Conv2D":    {"cols"},
		"Dense":     {"x"},
		"ReLU":      {"mask"},
		"MaxPool2D": {"argmax", "inSize"},
	}
	for _, net := range []*nn.Network{b.Normal, b.Skewed} {
		for i, l := range net.Layers {
			v := reflect.ValueOf(l).Elem()
			for _, name := range state[v.Type().Name()] {
				f := v.FieldByName(name)
				if !f.IsValid() {
					t.Fatalf("%s layer %d: %s has no field %q", net.Name, i, v.Type().Name(), name)
				}
				if !f.IsZero() {
					t.Errorf("%s layer %d (%s): %s.%s holds training state", net.Name, i, l.Name(), v.Type().Name(), name)
				}
			}
		}
		for _, p := range net.Params() {
			if p.Grad.AbsMax() != 0 {
				t.Errorf("%s: param %s keeps a training gradient", net.Name, p.Name)
			}
		}
	}
}

// TestFig3VsFig6Mechanism asserts the paper's central distribution
// claim: skewed training moves the weight mass to low conductances.
func TestFig3VsFig6Mechanism(t *testing.T) {
	d3, err := Fig3(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	d6, err := Fig6(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if d6.MeanRelConductance >= d3.MeanRelConductance-0.1 {
		t.Fatalf("skewed mean relative conductance %.3f must sit well below conventional %.3f",
			d6.MeanRelConductance, d3.MeanRelConductance)
	}
	if d6.WeightSkewness <= d3.WeightSkewness {
		t.Fatalf("skewed weight skewness %.3f must exceed conventional %.3f",
			d6.WeightSkewness, d3.WeightSkewness)
	}
	if d6.HighResistanceMass <= d3.HighResistanceMass {
		t.Fatal("skewed training must put more devices at high resistance")
	}
	// The two weight distributions are far apart in KS distance.
	b, err := LeNetBundle(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	ks := analysis.KSStatistic(train.GatherWeights(b.Normal), train.GatherWeights(b.Skewed))
	if ks < 0.2 {
		t.Fatalf("KS distance between conventional and skewed weights = %.3f, want a clear shift", ks)
	}
}

func TestFig4LevelDecay(t *testing.T) {
	pts, err := Fig4(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].UsableLevels != DeviceParams().Levels {
		t.Fatalf("fresh device must expose all %d levels", DeviceParams().Levels)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].UpperBound > pts[i-1].UpperBound {
			t.Fatal("upper bound must decrease with stress")
		}
		if pts[i].UsableLevels > pts[i-1].UsableLevels {
			t.Fatal("usable levels must not recover")
		}
	}
	if pts[len(pts)-1].UsableLevels >= pts[0].UsableLevels/2 {
		t.Fatal("sweep must reach substantial level loss")
	}
}

func TestFig7PenaltyShape(t *testing.T) {
	r, err := Fig7(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lambda1 < r.Lambda2 {
		t.Fatal("lambda1 must dominate lambda2 for LeNet")
	}
	// The penalty is asymmetric around beta: strictly higher at
	// beta - d than at beta + d.
	left := r.Beta - 0.1
	right := r.Beta + 0.1
	var leftPen, rightPen float64
	for i, x := range r.Penalty.X {
		if x <= left {
			leftPen = r.Penalty.Y[i]
		}
		if x <= right {
			rightPen = r.Penalty.Y[i]
		}
	}
	if leftPen <= rightPen {
		t.Fatalf("penalty left of beta (%.4g) must exceed right (%.4g)", leftPen, rightPen)
	}
}

func TestFig8SelectionBelowFresh(t *testing.T) {
	r, err := Fig8(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Candidates) < 2 {
		t.Fatalf("uneven aging must produce multiple candidates, got %d", len(r.Candidates))
	}
	if r.ChosenRHi >= r.FreshRHi {
		t.Fatal("aged layer selection must sit below the fresh bound")
	}
}

func TestTable2RowsStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 trains the VGG bundle; skipped in -short")
	}
	rows, err := Table2(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	// 5 LeNet weight layers + 16 VGG weight layers.
	if len(rows) != 21 {
		t.Fatalf("Table II rows = %d, want 21", len(rows))
	}
	for _, r := range rows {
		if r.Sigma <= 0 {
			t.Fatalf("layer %s sigma must be positive", r.Layer)
		}
		if r.Beta >= 0 {
			t.Fatalf("layer %s beta must sit at the left edge (negative), got %g", r.Layer, r.Beta)
		}
	}
}

// TestTable1BundleOrdering runs the headline comparison at a reduced
// budget and checks the scenario ordering the paper reports.
func TestTable1BundleOrdering(t *testing.T) {
	b, err := LeNetBundle(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	base := b.Spec
	if base.Lifetime.TargetAcc, err = specTarget(b, b.Spec); err != nil {
		t.Fatal(err)
	}
	base.Lifetime.AppsPerCycle = 1000
	base.Lifetime.MaxCycles = 25
	base.Lifetime.Tuning.MaxIters = 25
	base.Lifetime.EvalN = 48
	row, err := Table1Bundle(b, base, testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if row.LifeSTT < row.LifeTT {
		t.Fatalf("ST+T lifetime %d must be >= T+T %d", row.LifeSTT, row.LifeTT)
	}
	if row.LifeSTAT < row.LifeTT {
		t.Fatalf("ST+AT lifetime %d must be >= T+T %d", row.LifeSTAT, row.LifeTT)
	}
}

// runArmExperiment runs a registered arm experiment's arms on its
// first fixture.
func runArmExperiment(t *testing.T, id string) []lifetime.Result {
	t.Helper()
	e, ok := armExperiments[id]
	if !ok {
		t.Fatalf("%s is not an arm experiment", id)
	}
	runs, err := e.run(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	return runs[0].res
}

func TestFig10SeriesShape(t *testing.T) {
	res := runArmExperiment(t, "fig10")
	tt, stat := res[0], res[1]
	if len(tt.Records) == 0 || len(stat.Records) == 0 {
		t.Fatal("both scenario series must have points")
	}
	if stat.Lifetime < tt.Lifetime {
		t.Fatalf("ST+AT lifetime %d must be >= T+T %d", stat.Lifetime, tt.Lifetime)
	}
}

func TestFig11ConvAgesFaster(t *testing.T) {
	recs := runArmExperiment(t, "fig11")[0].Records
	if len(recs) == 0 {
		t.Fatal("conv series must have points")
	}
	last := recs[len(recs)-1]
	if last.ConvUpper >= last.FCUpper {
		t.Fatalf("conv layers must age faster: conv upper %.0f vs fc %.0f", last.ConvUpper, last.FCUpper)
	}
}

func TestAblationStressModelKillsSkewAdvantage(t *testing.T) {
	res := runArmExperiment(t, "ablation-stress")
	if len(res) != 4 {
		t.Fatalf("stress ablation rows = %d, want 4", len(res))
	}
	// Arms: power-proportional T+T, ST+T, then uniform T+T, ST+T. With
	// power-proportional stress ST+T beats T+T; with uniform stress the
	// advantage must shrink (ratio closer to 1).
	powered := float64(res[1].Lifetime) / float64(max64(1, res[0].Lifetime))
	uniform := float64(res[3].Lifetime) / float64(max64(1, res[2].Lifetime))
	if powered <= uniform {
		t.Fatalf("removing the power coupling must shrink the skew advantage: %0.2f vs %0.2f", powered, uniform)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestRunnersProduceOutput executes the cheap registered experiments
// end-to-end through their Run functions.
func TestRunnersProduceOutput(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "fig6", "fig7", "fig8"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, testOpt); err != nil {
			t.Fatalf("%s failed: %v", id, err)
		}
		if !strings.Contains(buf.String(), "Fig.") {
			t.Fatalf("%s produced no figure output:\n%s", id, buf.String())
		}
	}
}
