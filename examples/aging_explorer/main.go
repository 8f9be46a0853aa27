// aging_explorer studies a single memristor's aging behaviour: how the
// valid resistance range (eq. (6)/(7)) and the usable level count decay
// with programming activity, and how strongly the programming
// conductance influences that decay — the physics behind the paper's
// skewed-weight idea.
//
// Run with: go run ./examples/aging_explorer
package main

import (
	"fmt"

	"memlife/internal/aging"
	"memlife/internal/analysis"
	"memlife/internal/device"
)

func main() {
	p := device.Params32()
	m := aging.DefaultModel()

	fmt.Printf("device: %d levels, R in [%.0f, %.0f] Ohm, %.1fV/%.0fns pulses\n",
		p.Levels, p.RminFresh, p.RmaxFresh, p.Vprog, p.PulseWidth*1e9)
	fmt.Printf("aging model: A=%.0f B=%.0f Ea=%.2feV M=%.2f Tref=%.0fK\n\n",
		m.A, m.B, m.Ea, m.M, m.TrefK)

	// 1. Range decay under full-range cycling (worst case).
	fmt.Println("full-range cycling (LRS <-> HRS), one device:")
	d := device.New(p.Grid(), 0)
	var rows [][]string
	for cycle := 0; cycle <= 50; cycle += 10 {
		lo, hi := m.Bounds(p, d.Stress(), 300)
		rows = append(rows, []string{
			fmt.Sprintf("%d", cycle),
			fmt.Sprintf("%d", d.Pulses()),
			fmt.Sprintf("%.2f", d.Stress()),
			fmt.Sprintf("%.0f", lo),
			fmt.Sprintf("%.0f", hi),
			fmt.Sprintf("%d", p.Grid().UsableLevels(lo, hi)),
		})
		for k := 0; k < 10; k++ {
			lo, hi := m.Bounds(p, d.Stress(), 300)
			d.Program(p.RminFresh, lo, hi)
			lo, hi = m.Bounds(p, d.Stress(), 300)
			d.Program(p.RmaxFresh, lo, hi)
		}
	}
	fmt.Print(analysis.Table(
		[]string{"cycles", "pulses", "stress", "R_aged_min", "R_aged_max", "usable levels"}, rows))

	// 2. The conductance dependence: cycling between two adjacent
	// levels at the low-R end vs the high-R end.
	fmt.Println("\nconductance dependence (100 pulses each):")
	lowR := device.New(p.Grid(), 0) // high conductance corner
	highR := device.New(p.Grid(), 0)
	for k := 0; k < 50; k++ {
		lowR.Program(p.LevelResistance(0), p.RminFresh, p.RmaxFresh)
		lowR.Program(p.LevelResistance(1), p.RminFresh, p.RmaxFresh)
		highR.Program(p.LevelResistance(p.Levels-2), p.RminFresh, p.RmaxFresh)
		highR.Program(p.LevelResistance(p.Levels-1), p.RminFresh, p.RmaxFresh)
	}
	_, hiLow := m.Bounds(p, lowR.Stress(), 300)
	_, hiHigh := m.Bounds(p, highR.Stress(), 300)
	fmt.Printf("  low-R  (high-g) cycling: stress %.2f -> upper bound %.0f Ohm\n", lowR.Stress(), hiLow)
	fmt.Printf("  high-R (low-g)  cycling: stress %.2f -> upper bound %.0f Ohm\n", highR.Stress(), hiHigh)
	fmt.Printf("  stress ratio: %.1fx — the skewed-weight mechanism of Section IV-A\n",
		lowR.Stress()/highR.Stress())

	// 3. Temperature acceleration (Arrhenius).
	fmt.Println("\ntemperature acceleration (same 50 cycles of stress):")
	for _, tK := range []float64{280, 300, 320, 340, 360} {
		lo, hi := m.Bounds(p, lowR.Stress(), tK)
		fmt.Printf("  T=%3.0fK accel=%.2fx usable levels=%d\n", tK, m.Accel(tK), p.Grid().UsableLevels(lo, hi))
	}
}
