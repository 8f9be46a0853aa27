package crossbar

import (
	"math"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/nn"
	"memlife/internal/tensor"
	"memlife/internal/train"
)

// trainedSmallNet returns a small trained MLP plus its datasets.
func trainedSmallNet(t *testing.T) (*nn.Network, *dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.SynthConfig{Classes: 4, TrainN: 160, TestN: 60, C: 3, H: 8, W: 8, Noise: 0.15, Seed: 31}
	trainDS, testDS := dataset.MustGenerate(cfg)
	net, err := nn.NewMLP("m", []int{trainDS.SampleSize(), 20, 4}, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	_, err = train.Train(net, trainDS, testDS, train.Config{
		Epochs: 5, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, trainDS, testDS
}

func newMapped(t *testing.T, net *nn.Network) *MappedNetwork {
	t.Helper()
	mn, err := NewMappedNetwork(net, device.Params32(), aging.DefaultModel(), 300)
	if err != nil {
		t.Fatal(err)
	}
	return mn
}

func TestMappedNetworkLayerStructure(t *testing.T) {
	net, _, _ := trainedSmallNet(t)
	mn := newMapped(t, net)
	if len(mn.Layers) != 2 {
		t.Fatalf("mapped layers = %d, want 2", len(mn.Layers))
	}
	for _, l := range mn.Layers {
		if l.Crossbar.Rows != l.Param.W.Dim(0) || l.Crossbar.Cols != l.Param.W.Dim(1) {
			t.Fatalf("crossbar %s dims %dx%d do not match weights %v",
				l.Name, l.Crossbar.Rows, l.Crossbar.Cols, l.Param.W.Shape())
		}
		// Param lives in the mapped network's own clone; Target is the
		// trained network's tensor, which the mapped network never
		// writes.
		l.Param.W.Set(123, 0, 0)
		if l.Target.At(0, 0) == 123 {
			t.Fatal("writing the mapped weights must not reach the trained network")
		}
		l.Param.W.CopyFrom(l.Target)
	}
	trained := net.WeightParams()
	for i, l := range mn.Layers {
		if l.Target != trained[i].W {
			t.Fatalf("layer %s: Target must be the trained network's weight tensor", l.Name)
		}
	}
	if mn.Net == net {
		t.Fatal("the mapped network must run on a clone of the trained network")
	}
}

// TestHardwareAccuracyCloseToSoftware is the headline integration check
// of Section II-B/C: mapping + quantization must cost only a small
// accuracy drop on a fresh array.
func TestHardwareAccuracyCloseToSoftware(t *testing.T) {
	net, _, testDS := trainedSmallNet(t)
	softAcc := train.Evaluate(net, testDS, 32)

	mn := newMapped(t, net)
	mapAllFresh(mn)
	batches := testDS.Batches(testDS.Len(), nil)
	hwAcc := mustAcc(t, mn, batches[0].X, batches[0].Y)

	if hwAcc < softAcc-0.15 {
		t.Fatalf("fresh-hardware accuracy %.3f dropped too far below software %.3f", hwAcc, softAcc)
	}
}

func TestRefreshLoadsEffectiveWeights(t *testing.T) {
	net, _, _ := trainedSmallNet(t)
	mn := newMapped(t, net)
	mapAllFresh(mn)
	mustRefresh(t, mn)
	for _, l := range mn.Layers {
		diff := 0.0
		eff := mustEff(t, l.Crossbar)
		for i, v := range l.Param.W.Data() {
			diff += math.Abs(v - eff.Data()[i])
		}
		if diff != 0 {
			t.Fatalf("layer %s params differ from effective weights after Refresh", l.Name)
		}
	}
}

func TestRestoreSoftwareWeights(t *testing.T) {
	net, _, _ := trainedSmallNet(t)
	mn := newMapped(t, net)
	orig := mn.Layers[0].Target.Clone()
	mapAllFresh(mn)
	mustRefresh(t, mn)
	mn.RestoreSoftwareWeights()
	for i, v := range mn.Layers[0].Param.W.Data() {
		if v != orig.Data()[i] {
			t.Fatal("RestoreSoftwareWeights must bring back trained values")
		}
	}
}

// mapAllFresh maps every layer onto the fresh device range — the
// baseline mapping that ignores aging (the T+T / ST+T scenarios) — and
// returns the summed mapping cost.
func mapAllFresh(mn *MappedNetwork) MapStats {
	var total MapStats
	for i, l := range mn.Layers {
		p := l.Crossbar.Params()
		s := mn.MapLayer(i, p.RminFresh, p.RmaxFresh)
		total.Pulses += s.Pulses
		total.Stress += s.Stress
		total.Clipped += s.Clipped
	}
	return total
}

func TestMapAllFreshAccounting(t *testing.T) {
	net, _, _ := trainedSmallNet(t)
	mn := newMapped(t, net)
	stats := mapAllFresh(mn)
	if stats.Pulses <= 0 || stats.Clipped != 0 {
		t.Fatalf("fresh map stats = %+v, want pulses > 0 and no clipping", stats)
	}
	if mn.TotalPulses() != int64(stats.Pulses) {
		t.Fatalf("pulse accounting mismatch: %d vs %d", mn.TotalPulses(), stats.Pulses)
	}
	if mn.TotalStress() <= 0 {
		t.Fatal("mapping must accumulate stress")
	}
}

func TestMeanUpperBoundByKind(t *testing.T) {
	rng := tensor.NewRNG(7)
	net, err := nn.NewLeNet5(nn.LeNetConfig{InC: 3, H: 16, W: 16, Classes: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mn := newMapped(t, net)
	conv, fc := mn.MeanUpperBoundByKind()
	p := device.Params32()
	if conv != p.RmaxFresh || fc != p.RmaxFresh {
		t.Fatalf("fresh bounds by kind = %g/%g, want both %g", conv, fc, p.RmaxFresh)
	}
	// Age only the first conv crossbar and check the conv average drops.
	cb := mn.Layers[0].Crossbar
	for k := 0; k < 50; k++ {
		cb.Device(0, 0).Program(p.RminFresh, p.RminFresh, p.RmaxFresh)
		cb.Device(0, 0).Program(p.RmaxFresh, p.RminFresh, p.RmaxFresh)
	}
	conv2, fc2 := mn.MeanUpperBoundByKind()
	if conv2 >= conv {
		t.Fatal("conv average upper bound must drop after conv-layer aging")
	}
	if fc2 != fc {
		t.Fatal("fc average must be untouched by conv-layer aging")
	}
}

func TestMappedNetworkDrift(t *testing.T) {
	net, _, _ := trainedSmallNet(t)
	mn := newMapped(t, net)
	mapAllFresh(mn)
	before := mustEff(t, mn.Layers[0].Crossbar).Clone()
	mn.Drift(0.08, tensor.NewRNG(9))
	after := mustEff(t, mn.Layers[0].Crossbar)
	same := true
	for i, v := range before.Data() {
		if after.Data()[i] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("drift must perturb effective weights")
	}
	if mn.TotalPulses() != int64(0)+mn.TotalPulses() {
		t.Fatal("sanity")
	}
}
