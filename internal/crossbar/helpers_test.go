package crossbar

import (
	"testing"

	"memlife/internal/tensor"
)

// mustEff reads one readback of the effective weights through the
// production read path, failing the test on error.
func mustEff(t testing.TB, cb *Crossbar) *tensor.Tensor {
	t.Helper()
	eff := tensor.New(cb.Rows, cb.Cols)
	if err := cb.ReadWeightsInto(eff); err != nil {
		t.Fatalf("ReadWeightsInto: %v", err)
	}
	return eff
}

// mustDiffEff reads back the weights a differential pair implements,
// failing the test on error.
func mustDiffEff(t testing.TB, d *DifferentialCrossbar) *tensor.Tensor {
	t.Helper()
	eff, err := d.EffectiveWeights()
	if err != nil {
		t.Fatalf("EffectiveWeights: %v", err)
	}
	return eff
}

// mustAcc evaluates the mapped network, failing the test on error.
func mustAcc(t testing.TB, mn *MappedNetwork, x *tensor.Tensor, y []int) float64 {
	t.Helper()
	acc, err := mn.Accuracy(x, y)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	return acc
}

// mustRefresh refreshes the mapped network, failing the test on error.
func mustRefresh(t testing.TB, mn *MappedNetwork) {
	t.Helper()
	if err := mn.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
}
