// Package train implements software training as described in Section
// II-A of the paper: SGD with backpropagation, the standard L2
// regularizer of eq. (1)/(2), and the proposed two-segment skewed
// regularizer of eq. (8)-(10) that concentrates weights towards small
// values so that the mapped memristor conductances are small (large
// resistances, small programming currents, less aging).
package train

import (
	"fmt"
	"math"

	"memlife/internal/nn"
)

// Regularizer adds a penalty term R(W) to the training cost and its
// gradient to the weight gradients. Only matrix weights (KindWeight)
// are regularized; biases live in digital periphery and are exempt,
// matching the usual practice and the paper's W_i notation.
type Regularizer interface {
	// Penalty returns the value of R(W) over the given parameters.
	Penalty(params []*nn.Param) float64
	// AddGrad accumulates dR/dW into each parameter's gradient.
	AddGrad(params []*nn.Param)
	// Scaled returns a copy of the regularizer with all penalty
	// strengths multiplied by f (0 <= f <= 1 during warmup). It backs
	// the trainer's warmup ramp (Config.RegWarmup): applying the full
	// two-segment penalty from the first batch can herd all weights to
	// the reference point before cross-entropy establishes a useful
	// representation, collapsing training.
	Scaled(f float64) Regularizer
}

// None is the no-regularization baseline.
type None struct{}

// Penalty implements Regularizer.
func (None) Penalty([]*nn.Param) float64 { return 0 }

// AddGrad implements Regularizer.
func (None) AddGrad([]*nn.Param) {}

// Scaled implements Regularizer.
func (n None) Scaled(float64) Regularizer { return n }

// L2 is the standard weight-decay term of eq. (2): R(W) = lambda *
// sum_i ||W_i||^2. This is the "traditional training" configuration
// (the T of the T+T scenario).
type L2 struct {
	Lambda float64
}

// Penalty implements Regularizer.
func (l L2) Penalty(params []*nn.Param) float64 {
	s := 0.0
	for _, p := range params {
		if p.Kind != nn.KindWeight {
			continue
		}
		for _, w := range p.W.Data() {
			s += w * w
		}
	}
	return l.Lambda * s
}

// AddGrad implements Regularizer.
func (l L2) AddGrad(params []*nn.Param) {
	for _, p := range params {
		if p.Kind != nn.KindWeight {
			continue
		}
		g := p.Grad.Data()
		for i, w := range p.W.Data() {
			g[i] += 2 * l.Lambda * w
		}
	}
}

// Scaled implements Regularizer.
func (l L2) Scaled(f float64) Regularizer { return L2{Lambda: l.Lambda * f} }

// Skewed is the paper's two-segment regularizer (eq. (8)-(10)):
//
//	R1(W) = sum_i lambda1 * ||W_i - beta_i||^2   for W_i <  beta_i
//	R2(W) = sum_i lambda2 * ||W_i - beta_i||^2   for W_i >= beta_i
//
// beta_i is the per-layer reference weight around which weights are
// concentrated; lambda1 >= lambda2 penalizes the left side harder. In
// the paper beta_i is a constant multiple of the standard deviation
// sigma_i of the conventionally trained layer (Table II). For the
// usual mean-zero weight distributions the constant is negative
// (beta_i at the distribution's left edge, e.g. -0.5 * sigma_i): the
// strong lambda1 penalty then acts as a wall below beta while the weak
// lambda2 drags mass down towards it, yielding the left-concentrated
// skewed distribution of Fig. 6(a) — most weights land near the weight
// minimum, map to small conductances under eq. (4), and therefore draw
// small programming currents.
type Skewed struct {
	Lambda1 float64
	Lambda2 float64
	// Betas maps parameter names to their reference weight beta_i.
	// Parameters without an entry fall back to DefaultBeta.
	Betas       map[string]float64
	DefaultBeta float64
}

// NewSkewed constructs the skewed regularizer with explicit per-layer
// reference weights.
func NewSkewed(lambda1, lambda2 float64, betas map[string]float64) (*Skewed, error) {
	if lambda1 < 0 || lambda2 < 0 {
		return nil, fmt.Errorf("train: skewed penalties must be non-negative, got %g/%g", lambda1, lambda2)
	}
	if lambda1 < lambda2 {
		return nil, fmt.Errorf("train: skewed regularizer needs lambda1 >= lambda2 (left side penalized harder), got %g < %g", lambda1, lambda2)
	}
	return &Skewed{Lambda1: lambda1, Lambda2: lambda2, Betas: betas}, nil
}

// beta returns the reference weight for parameter p.
func (s *Skewed) beta(p *nn.Param) float64 {
	if b, ok := s.Betas[p.Name]; ok {
		return b
	}
	return s.DefaultBeta
}

// Penalty implements Regularizer.
func (s *Skewed) Penalty(params []*nn.Param) float64 {
	total := 0.0
	for _, p := range params {
		if p.Kind != nn.KindWeight {
			continue
		}
		b := s.beta(p)
		for _, w := range p.W.Data() {
			d := w - b
			if w < b {
				total += s.Lambda1 * d * d
			} else {
				total += s.Lambda2 * d * d
			}
		}
	}
	return total
}

// AddGrad implements Regularizer.
func (s *Skewed) AddGrad(params []*nn.Param) {
	for _, p := range params {
		if p.Kind != nn.KindWeight {
			continue
		}
		b := s.beta(p)
		g := p.Grad.Data()
		for i, w := range p.W.Data() {
			d := w - b
			if w < b {
				g[i] += 2 * s.Lambda1 * d
			} else {
				g[i] += 2 * s.Lambda2 * d
			}
		}
	}
}

// Scaled implements Regularizer.
func (s *Skewed) Scaled(f float64) Regularizer {
	return &Skewed{
		Lambda1: s.Lambda1 * f, Lambda2: s.Lambda2 * f,
		Betas: s.Betas, DefaultBeta: s.DefaultBeta,
	}
}

// PenaltyAt evaluates the pointwise penalty of a single weight value —
// used to plot the regularizer shape of Fig. 7.
func (s *Skewed) PenaltyAt(w, beta float64) float64 {
	d := w - beta
	if w < beta {
		return s.Lambda1 * d * d
	}
	return s.Lambda2 * d * d
}

// BetasFromNetwork derives per-layer reference weights beta_i =
// factor * sigma_i from the current weight distributions of net, as the
// paper does from the conventionally trained network (Table II: "the
// reference weights were set to the standard deviation sigma_i
// multiplied by a constant value").
func BetasFromNetwork(net *nn.Network, factor float64) map[string]float64 {
	betas := make(map[string]float64)
	for _, p := range net.WeightParams() {
		betas[p.Name] = factor * p.W.Std()
	}
	return betas
}

// SkewnessOf measures the sample skewness of a weight slice; negative
// values mean a left tail (mass concentrated on the right), which is
// the signature of the distribution the skewed regularizer produces in
// resistance space. Returns 0 for fewer than 3 values or zero variance.
func SkewnessOf(w []float64) float64 {
	n := float64(len(w))
	if n < 3 {
		return 0
	}
	mean := 0.0
	for _, v := range w {
		mean += v
	}
	mean /= n
	m2, m3 := 0.0, 0.0
	for _, v := range w {
		d := v - mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}
