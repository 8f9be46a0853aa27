package aging

import (
	"fmt"
	"math"
	"testing"

	"memlife/internal/device"
)

// UpperLoss is the direct form of f(T,t): the Ohms lost from the upper
// resistance bound after the given normalized stress at temperature tK.
// It, LowerLoss and directBounds are the test oracle Evaluator.Bounds
// must reproduce bit for bit.
func (m Model) UpperLoss(stress, tK float64) float64 {
	if stress < 0 {
		panic(fmt.Sprintf("aging: negative stress %g", stress))
	}
	if stress == 0 {
		return 0
	}
	return m.A * m.Accel(tK) * math.Pow(stress, m.M)
}

// LowerLoss is the direct form of g(T,t), the Ohms lost from the lower
// resistance bound.
func (m Model) LowerLoss(stress, tK float64) float64 {
	if stress < 0 {
		panic(fmt.Sprintf("aging: negative stress %g", stress))
	}
	if stress == 0 {
		return 0
	}
	return m.B * m.Accel(tK) * math.Pow(stress, m.M)
}

// directBounds is eq. (6)/(7) spelled out with both floors, recomputing
// every stress-independent term per call.
func directBounds(m Model, p device.Params, stress, tK float64) (lo, hi float64) {
	hi = p.RmaxFresh - m.UpperLoss(stress, tK)
	lo = p.RminFresh - m.LowerLoss(stress, tK)
	if floor := 0.05 * p.RminFresh; lo < floor {
		lo = floor
	}
	if floor := p.LevelSpacing(); hi < lo+floor {
		hi = lo + floor
	}
	return lo, hi
}

// TestEvaluatorBitIdentical sweeps stress, temperature, and model
// variations and requires Evaluator.Bounds (and Model.Bounds, which
// delegates to it) to equal the direct formula with == — the
// precomputation must not change a single bit.
func TestEvaluatorBitIdentical(t *testing.T) {
	models := []Model{
		DefaultModel(),
		{A: 3000, B: 10, Ea: 0.9, M: 0.3, TrefK: 320},
		{A: 1, B: 0, Ea: 0.1, M: 1, TrefK: 300},
	}
	params := []device.Params{device.Params32(), device.Params64()}
	temps := []float64{250, 300, 300.5, 350, 400}
	stresses := []float64{0, 1e-12, 0.01, 0.5, 1, 3.7, 100, 1e6}
	for _, m := range models {
		for _, p := range params {
			for _, tK := range temps {
				e := m.Evaluator(p, tK)
				for _, s := range stresses {
					wantLo, wantHi := directBounds(m, p, s, tK)
					gotLo, gotHi := e.Bounds(s)
					if gotLo != wantLo || gotHi != wantHi {
						t.Fatalf("model %+v p.Levels=%d tK=%g stress=%g: evaluator [%v,%v], direct [%v,%v]",
							m, p.Levels, tK, s, gotLo, gotHi, wantLo, wantHi)
					}
					if lo, hi := m.Bounds(p, s, tK); lo != wantLo || hi != wantHi {
						t.Fatalf("model %+v p.Levels=%d tK=%g stress=%g: Model.Bounds [%v,%v], direct [%v,%v]",
							m, p.Levels, tK, s, lo, hi, wantLo, wantHi)
					}
				}
			}
		}
	}
}

// TestEvaluatorPanicsLikeModel pins the shared input contract.
func TestEvaluatorPanicsLikeModel(t *testing.T) {
	e := DefaultModel().Evaluator(device.Params32(), 300)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("negative stress", func() { e.Bounds(-1) })
	mustPanic("non-positive temperature", func() { DefaultModel().Evaluator(device.Params32(), 0) })
	mustPanic("NaN guard parity", func() { DefaultModel().Bounds(device.Params32(), -math.SmallestNonzeroFloat64, 300) })
}
