// Package dataset provides deterministic synthetic image-classification
// datasets that stand in for CIFAR-10 and CIFAR-100 in the paper's
// experiments.
//
// The paper's aging results depend on (a) the weight distributions that
// training produces, (b) the quantization behaviour of the mapped
// weights, and (c) how many online-tuning iterations are needed to reach
// a target accuracy — not on natural-image semantics. Each synthetic
// class is a parametric texture (an oriented colour grating plus a
// Gaussian blob, both derived deterministically from the class index),
// and each sample perturbs the prototype with noise, translation and
// amplitude jitter. The result is a multi-class image task with the
// same tensor shapes as CIFAR that small CNNs can learn quickly on CPU.
package dataset

import (
	"fmt"
	"math"

	"memlife/internal/tensor"
)

// Dataset is an in-memory labelled image dataset. Images are stored as a
// single rank-2 tensor of shape [N, C*H*W] with row i holding sample i
// in channel-major (C,H,W) order.
type Dataset struct {
	Images     *tensor.Tensor
	Labels     []int
	NumClasses int
	C, H, W    int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// SampleSize returns the flattened size of one image.
func (d *Dataset) SampleSize() int { return d.C * d.H * d.W }

// Image returns a view of sample i as a rank-1 tensor sharing storage.
func (d *Dataset) Image(i int) *tensor.Tensor { return d.Images.RowSlice(i) }

// Subset returns a dataset containing the first n samples (views, not
// copies, of the image storage are NOT taken: images are copied so the
// subset is independent).
func (d *Dataset) Subset(n int) *Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	imgs := tensor.New(n, d.SampleSize())
	copy(imgs.Data(), d.Images.Data()[:n*d.SampleSize()])
	return &Dataset{
		Images:     imgs,
		Labels:     append([]int(nil), d.Labels[:n]...),
		NumClasses: d.NumClasses,
		C:          d.C, H: d.H, W: d.W,
	}
}

// Batch is one minibatch: X has shape [B, C*H*W], Y holds class indices.
type Batch struct {
	X *tensor.Tensor
	Y []int
}

// Batches splits the dataset into minibatches after shuffling with rng.
// If rng is nil the order is sequential. The final short batch is kept.
func (d *Dataset) Batches(batchSize int, rng *tensor.RNG) []Batch {
	if batchSize <= 0 {
		panic(fmt.Sprintf("dataset: batch size must be positive, got %d", batchSize))
	}
	n := d.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		order = rng.Perm(n)
	}
	var out []Batch
	ss := d.SampleSize()
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		b := end - start
		x := tensor.New(b, ss)
		y := make([]int, b)
		for i := 0; i < b; i++ {
			src := d.Image(order[start+i]).Data()
			copy(x.Data()[i*ss:(i+1)*ss], src)
			y[i] = d.Labels[order[start+i]]
		}
		out = append(out, Batch{X: x, Y: y})
	}
	return out
}

// SynthConfig parameterizes a synthetic dataset.
type SynthConfig struct {
	Classes int // number of classes
	TrainN  int // training samples
	TestN   int // test samples
	C, H, W int // image shape
	Noise   float64
	Seed    int64
}

// Validate reports an error for degenerate configurations.
func (c SynthConfig) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("dataset: need at least 2 classes, got %d", c.Classes)
	case c.TrainN < c.Classes || c.TestN < 1:
		return fmt.Errorf("dataset: need >= %d train and >= 1 test samples, got %d/%d", c.Classes, c.TrainN, c.TestN)
	case c.C < 1 || c.H < 4 || c.W < 4:
		return fmt.Errorf("dataset: image shape too small: C=%d H=%d W=%d", c.C, c.H, c.W)
	case c.Noise < 0:
		return fmt.Errorf("dataset: noise must be non-negative, got %g", c.Noise)
	}
	return nil
}

// classProto holds the deterministic texture parameters of one class.
type classProto struct {
	fx, fy, phase float64    // grating frequency and phase
	colorW        [3]float64 // per-channel grating weight
	blobY, blobX  float64    // blob centre in [0,1]
	blobAmp       float64
	bias          float64
}

// protoFor derives class k's texture parameters from a dedicated RNG so
// that prototypes are independent of sample counts.
func protoFor(k int, seed int64) classProto {
	r := tensor.NewRNG(seed*1_000_003 + int64(k)*7919)
	p := classProto{
		fx:      0.5 + 3.5*r.Float64(),
		fy:      0.5 + 3.5*r.Float64(),
		phase:   2 * math.Pi * r.Float64(),
		blobY:   r.Float64(),
		blobX:   r.Float64(),
		blobAmp: 0.6 + 0.8*r.Float64(),
		bias:    0.4*r.Float64() - 0.2,
	}
	for c := 0; c < 3; c++ {
		p.colorW[c] = r.Uniform(-1, 1)
	}
	return p
}

// renderSample writes one perturbed sample of proto into dst (length
// C*H*W, channel-major).
func renderSample(dst []float64, p classProto, cfg SynthConfig, r *tensor.RNG) {
	shiftY := r.Uniform(-2, 2)
	shiftX := r.Uniform(-2, 2)
	amp := 0.8 + 0.4*r.Float64()
	hw := cfg.H * cfg.W
	for c := 0; c < cfg.C; c++ {
		cw := p.colorW[c%3]
		for y := 0; y < cfg.H; y++ {
			fy := (float64(y) + shiftY) / float64(cfg.H)
			for x := 0; x < cfg.W; x++ {
				fx := (float64(x) + shiftX) / float64(cfg.W)
				grating := math.Sin(2*math.Pi*(p.fx*fx+p.fy*fy) + p.phase)
				dy := fy - p.blobY
				dx := fx - p.blobX
				blob := p.blobAmp * math.Exp(-(dy*dy+dx*dx)/0.05)
				v := amp*(cw*grating+blob) + p.bias + cfg.Noise*r.Normal(0, 1)
				dst[c*hw+y*cfg.W+x] = v
			}
		}
	}
}

// Generate builds train and test datasets for cfg. Both splits draw
// classes round-robin so every class is equally represented, and the
// whole construction is deterministic in cfg.Seed.
func Generate(cfg SynthConfig) (train, test *Dataset, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	protos := make([]classProto, cfg.Classes)
	for k := range protos {
		protos[k] = protoFor(k, cfg.Seed)
	}
	build := func(n int, r *tensor.RNG) *Dataset {
		d := &Dataset{
			Images:     tensor.New(n, cfg.C*cfg.H*cfg.W),
			Labels:     make([]int, n),
			NumClasses: cfg.Classes,
			C:          cfg.C, H: cfg.H, W: cfg.W,
		}
		ss := d.SampleSize()
		for i := 0; i < n; i++ {
			k := i % cfg.Classes
			d.Labels[i] = k
			renderSample(d.Images.Data()[i*ss:(i+1)*ss], protos[k], cfg, r)
		}
		return d
	}
	trainRNG := tensor.NewRNG(cfg.Seed + 1)
	testRNG := tensor.NewRNG(cfg.Seed + 2)
	return build(cfg.TrainN, trainRNG), build(cfg.TestN, testRNG), nil
}

// MustGenerate is Generate for known-good configs; it panics on error.
func MustGenerate(cfg SynthConfig) (train, test *Dataset) {
	train, test, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return train, test
}
