package train

import (
	"fmt"
	"io"

	"memlife/internal/dataset"
	"memlife/internal/nn"
	"memlife/internal/tensor"
)

// Config parameterizes a training run.
type Config struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	LRDecay   float64 // per-epoch multiplicative decay; 1 disables
	Reg       Regularizer
	Seed      int64
	GradClip  float64 // clip each gradient tensor's absolute values; 0 disables
	// RegWarmup linearly ramps the regularizer strength from 0 to full
	// over the first RegWarmup epochs. 0 disables the ramp.
	RegWarmup int
	Log       io.Writer // optional progress log
}

// Validate reports an error for degenerate configs.
func (c Config) Validate() error {
	switch {
	case c.Epochs < 1:
		return fmt.Errorf("train: epochs must be >= 1, got %d", c.Epochs)
	case c.BatchSize < 1:
		return fmt.Errorf("train: batch size must be >= 1, got %d", c.BatchSize)
	case c.LR <= 0:
		return fmt.Errorf("train: learning rate must be positive, got %g", c.LR)
	case c.LRDecay < 0 || c.LRDecay > 1:
		return fmt.Errorf("train: LR decay must be in [0,1], got %g", c.LRDecay)
	case c.GradClip < 0:
		return fmt.Errorf("train: gradient clip must be non-negative, got %g", c.GradClip)
	case c.RegWarmup < 0:
		return fmt.Errorf("train: RegWarmup must be non-negative, got %d", c.RegWarmup)
	}
	return nil
}

// Result summarizes a training run.
type Result struct {
	EpochLoss     []float64 // mean total cost (C + R) per epoch
	EpochTestAcc  []float64 // test accuracy after each epoch
	FinalTestAcc  float64
	FinalTrainAcc float64
}

// Train runs SGD training of net on trainDS, evaluating on testDS after
// each epoch. The regularizer defaults to None.
func Train(net *nn.Network, trainDS, testDS *dataset.Dataset, cfg Config) (Result, error) {
	var res Result
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	reg := cfg.Reg
	if reg == nil {
		reg = None{}
	}
	opt, err := NewSGD(cfg.LR, cfg.Momentum)
	if err != nil {
		return res, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	params := net.Params()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochReg := reg
		if cfg.RegWarmup > 0 {
			f := float64(epoch+1) / float64(cfg.RegWarmup)
			if f > 1 {
				f = 1
			}
			epochReg = reg.Scaled(f)
		}
		batches := trainDS.Batches(cfg.BatchSize, rng)
		epochLoss := 0.0
		for _, b := range batches {
			net.ZeroGrads()
			logits := net.Forward(b.X, true)
			loss, dlogits := nn.SoftmaxCrossEntropy(logits, b.Y)
			net.Backward(dlogits)
			epochReg.AddGrad(params)
			if cfg.GradClip > 0 {
				for _, p := range params {
					p.Grad.Clamp(-cfg.GradClip, cfg.GradClip)
				}
			}
			opt.Step(params)
			epochLoss += loss + epochReg.Penalty(params)
		}
		epochLoss /= float64(len(batches))
		res.EpochLoss = append(res.EpochLoss, epochLoss)

		acc := Evaluate(net, testDS, cfg.BatchSize)
		res.EpochTestAcc = append(res.EpochTestAcc, acc)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %2d  loss %.4f  test acc %.4f\n", epoch+1, epochLoss, acc)
		}
		if cfg.LRDecay > 0 && cfg.LRDecay < 1 {
			opt.SetLR(opt.LR * cfg.LRDecay)
		}
	}
	res.FinalTestAcc = Evaluate(net, testDS, cfg.BatchSize)
	res.FinalTrainAcc = Evaluate(net, trainDS, cfg.BatchSize)
	return res, nil
}

// Evaluate returns net's accuracy over ds, evaluated in batches.
func Evaluate(net *nn.Network, ds *dataset.Dataset, batchSize int) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for _, b := range ds.Batches(batchSize, nil) {
		pred := net.Predict(b.X)
		for i, p := range pred {
			if p == b.Y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}
