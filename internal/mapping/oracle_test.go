package mapping

import (
	"reflect"
	"sort"
	"testing"

	"memlife/internal/aging"
	"memlife/internal/crossbar"
	"memlife/internal/dataset"
	"memlife/internal/device"
	"memlife/internal/fault"
	"memlife/internal/nn"
	"memlife/internal/tensor"
	"memlife/internal/train"
)

// referenceMap is the aging-aware Map with its original scoring: every
// candidate is scored by a full Net.Accuracy over evalX, recomputing the
// layers before the one being selected. It is the oracle for the
// prefix-reuse scoring of Map.
func referenceMap(mn *crossbar.MappedNetwork, cfg Config, evalX *tensor.Tensor, evalY []int) (Result, error) {
	res := Result{Policy: cfg.Policy}
	mn.RestoreSoftwareWeights()
	for _, l := range mn.Layers {
		p := l.Crossbar.Params()
		rLo := p.RminFresh
		minWidth := float64(cfg.MinLevels-1) * p.LevelSpacing()
		clampHi := func(hi float64) float64 {
			if hi > p.RmaxFresh {
				hi = p.RmaxFresh
			}
			if hi < rLo+minWidth {
				hi = rLo + minWidth
			}
			return hi
		}
		raw := l.Crossbar.TracedUpperBounds(cfg.FaultAware)
		snapped := make([]float64, 0, len(raw))
		for _, hi := range raw {
			hi = clampHi(hi)
			lvl := int((hi - p.RminFresh) / p.LevelSpacing())
			if lvl < 0 {
				lvl = 0
			}
			if lvl >= p.Levels {
				lvl = p.Levels - 1
			}
			snapped = append(snapped, clampHi(p.LevelResistance(lvl)))
		}
		sort.Float64s(snapped)
		candidates := candidateBounds(snapped, cfg.MaxCandidates)
		sel := LayerSelection{Layer: l.Name, RLo: rLo}
		bestAcc := -1.0
		saved := l.Param.W.Clone()
		for k := len(candidates) - 1; k >= 0; k-- {
			hi := candidates[k]
			l.Crossbar.QuantizeWeightsInto(l.Param.W, l.Target, rLo, hi)
			acc := mn.Net.Accuracy(evalX, evalY)
			sel.Candidates = append(sel.Candidates, CandidateScore{RHi: hi, Accuracy: acc})
			if acc > bestAcc {
				bestAcc = acc
				sel.RHi = hi
			}
		}
		l.Param.W.CopyFrom(saved)
		res.Selections = append(res.Selections, sel)
		l.Crossbar.QuantizeWeightsInto(l.Param.W, l.Target, sel.RLo, sel.RHi)
	}
	for i, sel := range res.Selections {
		s := mn.MapLayer(i, sel.RLo, sel.RHi, cfg.FaultAware)
		res.Stats.Pulses += s.Pulses
		res.Stats.Stress += s.Stress
		res.Stats.Clipped += s.Clipped
		res.Stats.Stuck += s.Stuck
		res.Stats.Skipped += s.Skipped
	}
	mn.ResetGains()
	return res, mn.Refresh()
}

// oracleNet trains a network briefly and returns it with an eval batch.
func oracleNet(t *testing.T, name string) (*nn.Network, *tensor.Tensor, []int) {
	t.Helper()
	rng := tensor.NewRNG(11)
	var (
		net *nn.Network
		err error
		cfg = dataset.SynthConfig{Classes: 4, TrainN: 96, TestN: 24, C: 1, H: 12, W: 12, Noise: 0.2, Seed: 5}
	)
	switch name {
	case "lenet":
		net, err = nn.NewLeNet5(nn.LeNetConfig{InC: 1, H: 12, W: 12, Classes: 4}, rng)
	case "mlp":
		net, err = nn.NewMLP("m", []int{cfg.C * cfg.H * cfg.W, 24, 12, 4}, rng)
	case "vgg":
		// Fewer samples keep the reference's full VGG forwards affordable.
		cfg.C, cfg.H, cfg.W, cfg.TrainN, cfg.TestN = 3, 32, 32, 48, 4
		net, err = nn.NewVGG16(nn.VGGConfig{InC: 3, H: 32, W: 32, Classes: 4, WidthMult: 0.125, FCWidth: 16}, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	trainDS, testDS := dataset.MustGenerate(cfg)
	if _, err := train.Train(net, trainDS, testDS, train.Config{
		Epochs: 2, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	b := testDS.Batches(testDS.Len(), nil)[0]
	return net, b.X, b.Y
}

// TestMapMatchesFullForwardScoring requires Map, which scores each
// candidate from the cached activation of the layers before it, to
// return exactly the Result of the full-forward reference and to leave
// the same weights in the network, on fresh, pre-aged and faulty arrays
// and across a remap.
func TestMapMatchesFullForwardScoring(t *testing.T) {
	arrays := []struct {
		name  string
		cfg   Config
		setup func(mn *crossbar.MappedNetwork) error
	}{
		{"fresh", testConfig(AgingAware), func(*crossbar.MappedNetwork) error { return nil }},
		{"pre-aged", testConfig(AgingAware), func(mn *crossbar.MappedNetwork) error {
			mn.RandomizeAging(0.3, tensor.NewRNG(9))
			mn.AddStress(40)
			return nil
		}},
		{"fault-aware", Config{Policy: AgingAware, MaxCandidates: 8, MinLevels: 4, FaultAware: true}, func(mn *crossbar.MappedNetwork) error {
			mn.RandomizeAging(0.3, tensor.NewRNG(9))
			mn.AddStress(40)
			return mn.SetFaults(fault.Config{StuckRate: 0.01, LRSFrac: 0.5, Seed: 3})
		}},
	}
	for _, netName := range []string{"lenet", "mlp", "vgg"} {
		if netName == "vgg" && testing.Short() {
			continue // minutes under the race detector; LeNet covers conv layers
		}
		net, x, y := oracleNet(t, netName)
		trained := net.SnapshotParams()
		for _, arr := range arrays {
			t.Run(netName+"/"+arr.name, func(t *testing.T) {
				// run maps a fresh deployment of the trained network
				// twice (initial map, then a remap after more wear).
				run := func(mapFn func(*crossbar.MappedNetwork, Config, *tensor.Tensor, []int) (Result, error)) ([]Result, [][]float64) {
					net.RestoreParams(trained)
					mn, err := crossbar.NewMappedNetwork(net, device.Params32(), aging.DefaultModel(), 300)
					if err != nil {
						t.Fatal(err)
					}
					if err := arr.setup(mn); err != nil {
						t.Fatal(err)
					}
					var results []Result
					for pass := 0; pass < 2; pass++ {
						res, err := mapFn(mn, arr.cfg, x, y)
						if err != nil {
							t.Fatal(err)
						}
						results = append(results, res)
						assertRefreshed(t, mn)
						mn.AddStress(20)
					}
					return results, mn.Net.SnapshotParams()
				}
				got, gotW := run(Map)
				want, wantW := run(referenceMap)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Map results differ from full-forward scoring:\n got %+v\nwant %+v", got, want)
				}
				if !reflect.DeepEqual(gotW, wantW) {
					t.Fatal("Map left different network weights than full-forward scoring")
				}
				if arr.name != "fresh" {
					n := 0
					for _, sel := range got[0].Selections {
						n += len(sel.Candidates)
					}
					if n <= len(got[0].Selections) {
						t.Fatalf("%d candidates over %d layers: the aged array must offer a choice", n, len(got[0].Selections))
					}
				}
			})
		}
	}
}

// assertRefreshed requires every layer's host weights to equal the
// crossbar readback.
func assertRefreshed(t *testing.T, mn *crossbar.MappedNetwork) {
	t.Helper()
	for _, l := range mn.Layers {
		eff := tensor.New(l.Crossbar.Rows, l.Crossbar.Cols)
		if err := l.Crossbar.ReadWeightsInto(eff); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(l.Param.W.Data(), eff.Data()) {
			t.Fatalf("layer %s: host weights differ from the crossbar readback after Map", l.Name)
		}
	}
}
