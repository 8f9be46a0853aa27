package crossbar

import (
	"fmt"

	"memlife/internal/device"
	"memlife/internal/fault"
)

// SetFaultInjector attaches a fault injector to the array and applies
// its initial (manufacturing-defect) stuck faults to the devices. The
// injector must have been built for exactly Rows*Cols devices. Pass a
// nil injector to detach fault injection (existing stuck devices stay
// stuck — hard faults are permanent).
func (c *Crossbar) SetFaultInjector(inj *fault.Injector) error {
	if inj != nil && inj.N() != c.Rows*c.Cols {
		return fmt.Errorf("crossbar: injector built for %d devices, array has %d", inj.N(), c.Rows*c.Cols)
	}
	c.inj = inj
	if inj == nil {
		return nil
	}
	for idx, d := range c.devices {
		if k := inj.InitialFault(idx); k != device.FaultNone {
			d.SetFault(k)
		}
	}
	return nil
}

// StuckCounts tallies the permanently stuck devices by polarity.
func (c *Crossbar) StuckCounts() (lrs, hrs int) {
	for _, d := range c.devices {
		switch d.Fault() {
		case device.FaultStuckLRS:
			lrs++
		case device.FaultStuckHRS:
			hrs++
		}
	}
	return lrs, hrs
}

// AdvanceFaults applies the aging-correlated wear-out hazard: every
// healthy device whose accumulated stress has crossed its drawn
// capacity becomes permanently stuck (heavily stressed devices fail
// first). It returns the number of newly stuck devices. A no-op
// without an injector or with wear-out disabled.
func (c *Crossbar) AdvanceFaults() int {
	if c.inj == nil {
		return 0
	}
	newly := 0
	for idx, d := range c.devices {
		if d.Stuck() {
			continue
		}
		if k := c.inj.WearOutFault(idx, d.Stress()); k != device.FaultNone {
			d.SetFault(k)
			newly++
		}
	}
	return newly
}
