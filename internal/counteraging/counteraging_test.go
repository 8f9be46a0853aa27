package counteraging

import (
	"math"
	"testing"

	"memlife/internal/device"
)

func TestPulseShapeFactors(t *testing.T) {
	if PulseDC.EnergyFactor() != 1 || PulseDC.SlowdownFactor() != 1 {
		t.Fatal("DC pulse must be the unit reference")
	}
	if math.Abs(PulseTriangular.EnergyFactor()-1.0/3) > 1e-12 {
		t.Fatalf("triangular energy factor = %g, want 1/3", PulseTriangular.EnergyFactor())
	}
	if PulseTriangular.SlowdownFactor() != 3 {
		t.Fatalf("triangular slowdown = %d, want 3", PulseTriangular.SlowdownFactor())
	}
	if math.Abs(PulseSinusoidal.EnergyFactor()-0.5) > 1e-12 {
		t.Fatalf("sinusoidal energy factor = %g, want 1/2", PulseSinusoidal.EnergyFactor())
	}
	if PulseDC.String() != "dc" || PulseTriangular.String() != "triangular" {
		t.Fatal("shape names")
	}
}

// TestApplyPulseShapeReducesStress checks the net effect on device
// stress: a shaped pulse train delivering the same dose costs less
// normalized stress than the DC pulse, because stress scales with the
// instantaneous power while the dose scales with energy.
func TestApplyPulseShapeReducesStress(t *testing.T) {
	base := device.Params32()
	for _, shape := range []PulseShape{PulseTriangular, PulseSinusoidal} {
		shaped := ApplyPulseShape(base, shape)
		if err := shaped.Validate(); err != nil {
			t.Fatalf("%v params invalid: %v", shape, err)
		}
		// Same level walk on both devices.
		dBase := device.New(base.Grid(), 0)
		dShaped := device.New(shaped.Grid(), 0)
		dBase.Program(base.RminFresh, base.RminFresh, base.RmaxFresh)
		dShaped.Program(shaped.RminFresh, shaped.RminFresh, shaped.RmaxFresh)
		if dShaped.Stress() >= dBase.Stress() {
			t.Fatalf("%v pulses must stress less: %g vs %g", shape, dShaped.Stress(), dBase.Stress())
		}
	}
}

func TestSeriesResistorDerating(t *testing.T) {
	p := SeriesResistorParams{Params: device.Params32(), Rs: 10e3}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// At R = Rs the divider halves the voltage: stress derated 4x.
	if got := p.StressDerating(10e3); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("derating at R=Rs = %g, want 0.25", got)
	}
	// The divider protects low-R (high current) states most.
	if p.StressDerating(10e3) >= p.StressDerating(100e3) {
		t.Fatal("derating must weaken as device resistance grows")
	}
	// No resistor, no derating.
	none := SeriesResistorParams{Params: device.Params32(), Rs: 0}
	if none.StressDerating(5e4) != 1 {
		t.Fatal("Rs=0 must not derate")
	}
	bad := SeriesResistorParams{Params: device.Params32(), Rs: -1}
	if bad.Validate() == nil {
		t.Fatal("negative Rs must be rejected")
	}
}

func TestSeriesResistorDeratingPanicsOnBadR(t *testing.T) {
	p := SeriesResistorParams{Params: device.Params32(), Rs: 1e3}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.StressDerating(0)
}
