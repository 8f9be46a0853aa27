package nn

import (
	"fmt"
	"math"

	"memlife/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// [B, classes] against integer labels, and the gradient of that loss
// with respect to the logits. This is the C(W) term of the paper's cost
// function (eq. (1)); the regularization terms R(W) / R1+R2(W) are added
// by the train package.
func SoftmaxCrossEntropy(logits *tensor.Tensor, y []int) (loss float64, dlogits *tensor.Tensor) {
	b, classes := logits.Dim(0), logits.Dim(1)
	if len(y) != b {
		panic(fmt.Sprintf("nn: loss label count %d != batch %d", len(y), b))
	}
	dlogits = tensor.New(b, classes)
	invB := 1 / float64(b)
	for i := 0; i < b; i++ {
		row := logits.RowSlice(i).Data()
		drow := dlogits.RowSlice(i).Data()
		// Numerically stable softmax.
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - max)
			drow[j] = e
			sum += e
		}
		label := y[i]
		if label < 0 || label >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, classes))
		}
		for j := range drow {
			p := drow[j] / sum
			drow[j] = p * invB
			if j == label {
				drow[j] -= invB
				// -log p with a floor to avoid -Inf on confident misses.
				if p < 1e-300 {
					p = 1e-300
				}
				loss -= math.Log(p) * invB
			}
		}
	}
	return loss, dlogits
}
