package device

import "testing"

func TestSetFaultPinsResistance(t *testing.T) {
	p := Params32()
	d := New(p.Grid(), 0)
	d.SetFault(FaultStuckLRS)
	if !d.Stuck() || d.Fault() != FaultStuckLRS {
		t.Fatalf("device must report its fault state, got %v", d.Fault())
	}
	if d.Resistance() != p.RminFresh {
		t.Fatalf("stuck-at-LRS must pin at RminFresh, got %g", d.Resistance())
	}
	d.SetFault(FaultStuckHRS)
	if d.Resistance() != p.RmaxFresh {
		t.Fatalf("stuck-at-HRS must pin at RmaxFresh, got %g", d.Resistance())
	}
	// Clearing the fault un-sticks without snapping the resistance.
	d.SetFault(FaultNone)
	if d.Stuck() {
		t.Fatal("FaultNone must un-stick the device")
	}
	if d.Resistance() != p.RmaxFresh {
		t.Fatal("clearing a fault must not move the resistance")
	}
}

func TestStuckDevicePulseFailsButAges(t *testing.T) {
	p := Params32()
	d := New(p.Grid(), 0)
	d.SetFault(FaultStuckLRS)
	r0, stress0, pulses0 := d.Resistance(), d.Stress(), d.Pulses()
	s := d.Pulse(+1, p.RminFresh, p.RmaxFresh)
	if s <= 0 {
		t.Fatalf("a pulse on a stuck device must still cost stress, got %g", s)
	}
	if d.Resistance() != r0 {
		t.Fatal("stuck device moved under a pulse")
	}
	if d.Stress() != stress0+s {
		t.Fatal("pulse stress not accumulated")
	}
	if d.Pulses() != pulses0+1 {
		t.Fatal("failed pulse must count towards the lifetime pulse total")
	}
}

func TestStuckDeviceDriftNoOp(t *testing.T) {
	p := Params32()
	d := New(p.Grid(), 0)
	d.SetFault(FaultStuckHRS)
	d.Drift(-500, p.RminFresh, p.RmaxFresh)
	if d.Resistance() != p.RmaxFresh {
		t.Fatal("a stuck filament must not drift")
	}
}

func TestProgramStuckDevice(t *testing.T) {
	p := Params32()
	d := New(p.Grid(), 0)
	d.SetFault(FaultStuckLRS)
	res := d.Program(p.RmaxFresh, p.RminFresh, p.RmaxFresh)
	if !res.Stuck {
		t.Fatal("programming a stuck device must report Stuck")
	}
	if res.Achieved != p.RminFresh {
		t.Fatalf("Achieved must be the pinned resistance, got %g", res.Achieved)
	}
	if res.Pulses != 1 || res.Stress <= 0 {
		t.Fatalf("the write-verify attempt costs exactly one pulse of stress, got %+v", res)
	}
	// Asking for the pinned level is free: write-verify sees the target
	// already held and applies no pulse.
	res = d.Program(p.RminFresh, p.RminFresh, p.RmaxFresh)
	if !res.Stuck || res.Pulses != 0 || res.Stress != 0 {
		t.Fatalf("programming a stuck device to its pinned level must be free, got %+v", res)
	}
}

// TestStressDerateZeroMeansNoDerating locks the zero-value contract of
// Params.StressDerate: the zero value behaves exactly like an explicit
// factor of 1.
func TestStressDerateZeroMeansNoDerating(t *testing.T) {
	base := Params32() // StressDerate == 0
	unit := Params32()
	unit.StressDerate = 1
	half := Params32()
	half.StressDerate = 0.5

	if got, want := base.Grid().PulseStress(base.RminFresh), unit.Grid().PulseStress(unit.RminFresh); got != want {
		t.Fatalf("zero StressDerate must equal factor 1: %g vs %g", got, want)
	}
	if got, want := half.Grid().PulseStress(half.RminFresh), 0.5*base.Grid().PulseStress(base.RminFresh); got != want {
		t.Fatalf("StressDerate=0.5 must halve pulse stress: %g vs %g", got, want)
	}
}

func TestStressDerateNegativeRejected(t *testing.T) {
	p := Params32()
	p.StressDerate = -0.1
	if err := p.Validate(); err == nil {
		t.Fatal("negative StressDerate must be rejected")
	}
}
