package device

import (
	"fmt"
	"math"
	"sync"
)

// Grid is the precomputed quantization/level lookup table of one device
// technology and the one home of its level arithmetic: the
// level-resistance grid materialized once, plus every derived constant
// the programming hot loops would otherwise recompute (level spacing,
// tuning-pulse delta, pulse-stress reference energy). Grids are cached
// process-wide per Params value — Params is a small comparable struct,
// and a simulation uses a handful of technologies across millions of
// devices — so every device of a crossbar shares one table.
//
// The table entries are computed by exactly the formula of
// Params.LevelResistance, and the scalar constants are single
// precomputed values fed through the direct formulas' arithmetic
// associations (FuzzQuantLUTMatchesDirect pins every method against
// reference spellings over random technologies and inputs).
type Grid struct {
	p       Params
	spacing float64   // LevelSpacing()
	levelR  []float64 // levelR[i] = LevelResistance(i)

	tuneDeltaG float64 // TunePulseDeltaG()

	// Pulse-stress constants (see PulseStress): the derated
	// uniform-stress cost and the constants of the physical form
	// ((vprogSq/r)*width)/refEnergy*derate, kept separate so the
	// association matches the direct formula exactly.
	uniformStress float64
	vprogSq       float64
	width         float64
	refEnergy     float64
	derate        float64
}

// gridCache holds one Grid per Params value ever requested.
var gridCache sync.Map // Params -> *Grid

// Grid returns the shared lookup table for this technology, building it
// on first use. p must be valid (it panics on invalid Params, like New).
func (p Params) Grid() *Grid {
	if g, ok := gridCache.Load(p); ok {
		return g.(*Grid)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Grid{
		p:             p,
		spacing:       p.LevelSpacing(),
		levelR:        make([]float64, p.Levels),
		tuneDeltaG:    p.TunePulseDeltaG(),
		uniformStress: math.Sqrt(p.RminFresh/p.RmaxFresh) * p.stressDerate(),
		vprogSq:       p.Vprog * p.Vprog,
		width:         p.PulseWidth,
		refEnergy:     p.refPulseEnergy(),
		derate:        p.stressDerate(),
	}
	for i := range g.levelR {
		g.levelR[i] = p.RminFresh + float64(i)*g.spacing
	}
	actual, _ := gridCache.LoadOrStore(p, g)
	return actual.(*Grid)
}

// Params returns the technology the grid was built for.
func (g *Grid) Params() Params { return g.p }

// LevelSpacing returns the precomputed resistance distance between
// adjacent levels.
func (g *Grid) LevelSpacing() float64 { return g.spacing }

// LevelResistance returns levelR[i] from the table.
func (g *Grid) LevelResistance(i int) float64 {
	if i < 0 || i >= len(g.levelR) {
		panic(fmt.Sprintf("device: level %d out of range [0,%d)", i, len(g.levelR)))
	}
	return g.levelR[i]
}

// NearestLevel returns the level index whose resistance is closest to r,
// clamped to the grid.
func (g *Grid) NearestLevel(r float64) int {
	i := int(math.Round((r - g.p.RminFresh) / g.spacing))
	if i < 0 {
		i = 0
	}
	if i >= g.p.Levels {
		i = g.p.Levels - 1
	}
	return i
}

// WindowLevels returns the level-index window [loLvl, hiLvl] of the
// fresh grid inside the resistance window [lo, hi], clamped to the
// grid; ok is false when no level falls inside (loLvl > hiLvl). This is
// the per-window half of NearestLevelIn, exposed so matrix-scale
// callers with one shared window (quantization against a common mapping
// range) hoist it out of their element loops.
func (g *Grid) WindowLevels(lo, hi float64) (loLvl, hiLvl int, ok bool) {
	loLvl = int(math.Ceil((lo - g.p.RminFresh) / g.spacing))
	hiLvl = int(math.Floor((hi - g.p.RminFresh) / g.spacing))
	if loLvl < 0 {
		loLvl = 0
	}
	if hiLvl >= g.p.Levels {
		hiLvl = g.p.Levels - 1
	}
	return loLvl, hiLvl, loLvl <= hiLvl
}

// NearestLevelIn returns the level index closest to r among levels whose
// resistance lies within [lo, hi]. When no level falls inside the
// window it returns the level nearest to the window. This implements
// the clipping of Fig. 4: a target of Level 7 on a device aged down to
// three usable levels lands on Level 2.
func (g *Grid) NearestLevelIn(r, lo, hi float64) int {
	loLvl, hiLvl, ok := g.WindowLevels(lo, hi)
	if !ok {
		return g.NearestLevel((lo + hi) / 2)
	}
	i := g.NearestLevel(r)
	if i < loLvl {
		return loLvl
	}
	if i > hiLvl {
		return hiLvl
	}
	return i
}

// UsableLevels counts the levels of the fresh grid that remain inside
// the aged range [lo, hi] (Fig. 4's level-count decay).
func (g *Grid) UsableLevels(lo, hi float64) int {
	loLvl, hiLvl, ok := g.WindowLevels(lo, hi)
	if !ok {
		return 0
	}
	return hiLvl - loLvl + 1
}

// TunePulseDeltaG returns the precomputed tuning-pulse conductance step.
func (g *Grid) TunePulseDeltaG() float64 { return g.tuneDeltaG }

// PulseStress returns the normalized stress contributed by one
// programming pulse applied while the device sits at resistance r:
// (Vprog^2 / r * width) / refPulseEnergy = RminFresh / r. A pulse into
// a fully-resistive (skewed-regime) device costs RminFresh/RmaxFresh of
// a full-current pulse — the aging advantage of Section IV-A. Under the
// UniformStress ablation every pulse costs the stress of a pulse
// through the geometric-mean resistance, so the total budget is
// comparable to the physical model while the skewed-weight advantage
// is removed.
func (g *Grid) PulseStress(r float64) float64 {
	if r <= 0 {
		panic(fmt.Sprintf("device: non-positive resistance %g", r))
	}
	if g.p.UniformStress {
		return g.uniformStress
	}
	return (g.vprogSq / r * g.width) / g.refEnergy * g.derate
}
