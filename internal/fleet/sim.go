package fleet

import (
	"context"
	"fmt"
	"math"

	"memlife/internal/aging"
	"memlife/internal/analysis"
	"memlife/internal/device"
)

// Instance lifecycle states.
const (
	stServing uint8 = iota
	stTuning
	stRemapping
	stReplacing
	stDead
)

// instance is one crossbar's aggregate state. The fleet layer tracks
// scalar aging state per instance (stress, usable window, drift)
// rather than a full crossbar — the per-device physics live in
// aging.Model/device.Params, evaluated exactly as the lifetime layer
// evaluates them.
type instance struct {
	state        uint8
	queue        int64 // backlog (requests)
	assigned     int64 // arrivals routed this tick
	stress       float64
	drift        float64 // recoverable accuracy deficit since last tune
	usable       int     // cached usable levels at current stress
	remapUsable  int     // usable levels at the last (re)map — tuning-cost baseline
	postTune     float64 // delivered accuracy right after the last tune
	acc          float64 // current delivered accuracy (postTune - drift)
	pendingIters float64 // tuning iterations of the in-flight maintenance
	doneAt       int64   // tick the in-flight maintenance completes
	alive        bool    // original cohort member not yet dead
	gen          int32   // replacement generation
}

// SurvivalPoint is one sample of the original cohort's survival curve.
type SurvivalPoint struct {
	Tick  int64   `json:"tick"`
	Alive float64 `json:"alive"` // fraction of the original cohort
}

// Result is one completed fleet simulation.
type Result struct {
	Instances int             `json:"instances"`
	Ticks     int             `json:"ticks"`
	Survival  []SurvivalPoint `json:"survival"`
	// Deaths counts original-cohort instances that aged out
	// (usable levels below the floor); FirstDeathTick is 0 when none.
	Deaths         int   `json:"deaths"`
	FirstDeathTick int64 `json:"first_death_tick"`
	// Replacements counts fresh crossbars swapped in (any generation).
	Replacements    int     `json:"replacements"`
	ReplacementCost float64 `json:"replacement_cost"`
	Served          int64   `json:"served"`
	Dropped         int64   `json:"dropped"`
	Retunes         int64   `json:"retunes"`
	Remaps          int64   `json:"remaps"`
	TuneIters       float64 `json:"tune_iters"`
	DowntimeTicks   int64   `json:"downtime_ticks"`
	// AccP99 is the delivered accuracy met or exceeded by 99% of
	// served requests (the 1st percentile of the accuracy
	// distribution); AccP50 the median.
	AccP50 float64 `json:"acc_p50"`
	AccP99 float64 `json:"acc_p99"`
	// LatencyP50/P99 summarize the latency proxy: backlog at arrival
	// in ticks-to-drain (queue/capacity).
	LatencyP50 float64 `json:"latency_p50"`
	LatencyP99 float64 `json:"latency_p99"`
	FinalAlive float64 `json:"final_alive"`
}

// Metrics flattens the result for campaign aggregation.
func (r Result) Metrics() map[string]float64 {
	return map[string]float64{
		"deaths":           float64(r.Deaths),
		"first_death_tick": float64(r.FirstDeathTick),
		"replacements":     float64(r.Replacements),
		"replacement_cost": r.ReplacementCost,
		"served":           float64(r.Served),
		"dropped":          float64(r.Dropped),
		"retunes":          float64(r.Retunes),
		"remaps":           float64(r.Remaps),
		"tune_iters":       r.TuneIters,
		"downtime_ticks":   float64(r.DowntimeTicks),
		"acc_p50":          r.AccP50,
		"acc_p99":          r.AccP99,
		"latency_p50":      r.LatencyP50,
		"latency_p99":      r.LatencyP99,
		"final_alive":      r.FinalAlive,
	}
}

// Sim is a running fleet simulation. Drive it with Tick (one clock
// tick per call) and harvest with Finish, or use Run. Steady-state
// ticking performs no heap allocation: the instance table, routing
// scratch, sketches and RNG are all preallocated at New.
type Sim struct {
	cfg  Config
	p    device.Params
	eval aging.Evaluator // the aged window at the fleet's temperature
	grid *device.Grid
	rng  rng
	traf *traffic
	tel  *fleetTel

	clock int64

	insts    []instance
	order    []int32 // least-aged fill order (scratch)
	lap      int     // fill pointer into order
	rrCursor int

	usableFresh int
	sampleEvery int64
	survival    []SurvivalPoint

	accSketch *analysis.Sketch
	latSketch *analysis.Sketch

	servedTotal  int64
	dropped      int64
	retunes      int64
	remaps       int64
	tuneIters    float64
	downtime     int64
	deaths       int
	firstDeath   int64
	replacements int
	cost         float64
}

// New validates the configuration against the device and aging model
// and builds a simulator seeded with the splitmix64 stream of seed.
// The fresh device must have at least minLevels usable levels, or
// every instance would be dead on arrival.
func New(cfg Config, p device.Params, m aging.Model, tempK float64, seed int64) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if tempK <= 0 {
		return nil, fmt.Errorf("fleet: non-positive temperature %g K", tempK)
	}
	s := &Sim{
		cfg:  cfg,
		p:    p,
		eval: m.Evaluator(p, tempK),
		grid: p.Grid(),
		rng:  newRNG(seed),
		traf: newTraffic(cfg.Traffic),
		tel:  newFleetTel(cfg.Instances),
	}
	s.usableFresh = s.usableLevels(0)
	if s.usableFresh < minLevels {
		return nil, fmt.Errorf("fleet: fresh device has %d usable levels, below the %d-level floor",
			s.usableFresh, minLevels)
	}
	s.insts = make([]instance, cfg.Instances)
	for i := range s.insts {
		in := &s.insts[i]
		in.state = stServing
		in.usable = s.usableFresh
		in.remapUsable = s.usableFresh
		in.postTune = s.postTuneAcc(s.usableFresh)
		in.acc = in.postTune
		in.alive = true
	}
	s.order = make([]int32, 0, cfg.Instances)
	s.sampleEvery = int64(cfg.Ticks / samplePoints)
	if s.sampleEvery < 1 {
		s.sampleEvery = 1
	}
	s.survival = make([]SurvivalPoint, 0, cfg.Ticks/int(s.sampleEvery)+2)
	s.accSketch = analysis.NewSketch()
	s.latSketch = analysis.NewSketch()
	return s, nil
}

// usableLevels evaluates the aged resistance window at the given
// stress and counts the surviving quantization levels.
func (s *Sim) usableLevels(stress float64) int {
	lo, hi := s.eval.Bounds(stress)
	return s.grid.UsableLevels(lo, hi)
}

// postTuneAcc is the delivered accuracy right after a tune at the
// given usable-level count: the fresh accuracy minus the aging floor.
func (s *Sim) postTuneAcc(usable int) float64 {
	frac := float64(usable) / float64(s.p.Levels)
	return baseAcc - levelPenalty*(1-frac)
}

// Tick advances the clock by one tick: every instance whose
// maintenance is due completes first, so it is back online before the
// tick's arrivals route, and then the tick's traffic runs. Completions
// are always scheduled at least one tick ahead (down >= 1), and each
// touches only its own instance, so their order within a tick is
// immaterial.
func (s *Sim) Tick() {
	s.clock++
	for i := range s.insts {
		if s.insts[i].doneAt == s.clock {
			s.complete(int32(i))
		}
	}
	s.doTick()
}

// doTick runs one tick: route arrivals, sample the latency proxy,
// serve, accrue read-disturb drift, run health checks, publish
// telemetry, and sample the survival curve.
func (s *Sim) doTick() {
	qcap := int64(queueCap)
	cap64 := int64(capacity)
	for i := range s.insts {
		s.insts[i].assigned = 0
	}
	if s.cfg.Balancer == BalLeastAged {
		s.buildOrder()
	}
	n := s.traf.arrivals(s.clock, &s.rng)
	for r := 0; r < n; r++ {
		key := s.traf.sampleKey(&s.rng)
		idx := s.route(key, cap64, qcap)
		if idx < 0 {
			s.dropped++
			continue
		}
		in := &s.insts[idx]
		in.queue++
		in.assigned++
	}
	// Latency proxy: the backlog a tick's arrivals joined, in
	// ticks-to-drain, weighted by those arrivals.
	for i := range s.insts {
		in := &s.insts[i]
		if in.assigned > 0 {
			s.latSketch.AddN(float64(in.queue)/float64(cap64), in.assigned)
		}
	}
	// Serve: read-disturb drift accrues per inference served.
	for i := range s.insts {
		in := &s.insts[i]
		if in.state != stServing || in.queue == 0 {
			continue
		}
		served := in.queue
		if served > cap64 {
			served = cap64
		}
		in.queue -= served
		in.drift += driftPerApp * float64(served)
		in.acc = in.postTune - in.drift
		s.servedTotal += served
		s.accSketch.AddN(in.acc, served)
	}
	// Health: below the maintenance threshold -> retune, remap, or
	// (window exhausted) die.
	thr := targetAcc + s.cfg.Service.TuneMargin
	for i := range s.insts {
		in := &s.insts[i]
		if in.state == stServing && in.acc < thr {
			s.startMaintenance(int32(i))
		}
	}
	s.tel.observe(s)
	if s.clock <= int64(s.cfg.Ticks) && s.clock%s.sampleEvery == 0 {
		s.recordSample()
		s.tel.observeQuantiles(s)
	}
}

// buildOrder fills s.order with the serving instances sorted by
// (stress, index) — the least-aged fill order — using an insertion
// sort over the preallocated scratch slice.
func (s *Sim) buildOrder() {
	s.order = s.order[:0]
	for i := range s.insts {
		if s.insts[i].state != stServing {
			continue
		}
		idx := int32(i)
		j := len(s.order)
		s.order = append(s.order, idx)
		for j > 0 {
			a, b := &s.insts[s.order[j-1]], &s.insts[idx]
			if a.stress < b.stress || (a.stress == b.stress && s.order[j-1] < idx) {
				break
			}
			s.order[j] = s.order[j-1]
			j--
		}
		s.order[j] = idx
	}
	s.lap = 0
}

// route picks the destination instance for one request, or -1 to drop
// it (no instance can take it).
func (s *Sim) route(key int32, cap64, qcap int64) int32 {
	switch s.cfg.Balancer {
	case BalLeastAged:
		for s.lap < len(s.order) {
			i := s.order[s.lap]
			in := &s.insts[i]
			if in.assigned < cap64 && in.queue < qcap {
				return i
			}
			s.lap++
		}
		// Every serving instance's tick capacity is claimed: spread
		// the overflow round-robin into the queues.
		return s.routeRR(qcap)
	case BalHashAffinity:
		n := len(s.insts)
		start := int(hashKey(key) % uint64(n))
		for probe := 0; probe < n; probe++ {
			i := (start + probe) % n
			in := &s.insts[i]
			if in.state == stServing && in.queue < qcap {
				return int32(i)
			}
		}
		return -1
	default: // BalRoundRobin
		return s.routeRR(qcap)
	}
}

func (s *Sim) routeRR(qcap int64) int32 {
	n := len(s.insts)
	for probe := 0; probe < n; probe++ {
		i := s.rrCursor % n
		s.rrCursor++
		in := &s.insts[i]
		if in.state == stServing && in.queue < qcap {
			return int32(i)
		}
	}
	return -1
}

// startMaintenance decides retune vs remap vs death for instance i and
// sets the tick its maintenance completes. Tuning cost grows as the usable
// window shrinks relative to the last map:
// iters = baseIters * (remapUsable/usable)^costExponent.
func (s *Sim) startMaintenance(i int32) {
	in := &s.insts[i]
	if in.usable < minLevels {
		s.die(i)
		return
	}
	iters := baseIters * math.Pow(float64(in.remapUsable)/float64(in.usable), costExponent)
	var down int64
	if iters > s.cfg.Service.MaxIters {
		// Retuning inside the collapsed window would blow the
		// iteration budget: remap into the aged window (fresh
		// baseline), then tune there.
		in.state = stRemapping
		in.pendingIters = baseIters
		down = int64(remapTicks) + ticksFor(baseIters)
		s.remaps++
		s.tuneIters += baseIters
	} else {
		in.state = stTuning
		in.pendingIters = iters
		down = ticksFor(iters)
		s.retunes++
		s.tuneIters += iters
	}
	s.downtime += down
	in.doneAt = s.clock + down
}

// ticksFor converts tuning iterations to downtime ticks (minimum 1).
func ticksFor(iters float64) int64 {
	t := int64(math.Ceil(iters / itersPerTick))
	if t < 1 {
		t = 1
	}
	return t
}

// die retires instance i: its backlog is dropped and — with
// replacement enabled — a fresh crossbar is scheduled in.
func (s *Sim) die(i int32) {
	in := &s.insts[i]
	if in.alive {
		in.alive = false
		s.deaths++
		if s.firstDeath == 0 {
			s.firstDeath = s.clock
		}
	}
	s.dropped += in.queue
	in.queue = 0
	if !s.cfg.Replace.Enabled {
		in.state = stDead
		return
	}
	in.state = stReplacing
	s.replacements++
	s.cost += replaceCost
	down := int64(replaceTicks)
	s.downtime += down
	in.doneAt = s.clock + down
}

// complete finishes instance i's in-flight maintenance: stress lands,
// the usable window is re-evaluated, drift clears, and the instance
// returns to serving.
func (s *Sim) complete(i int32) {
	in := &s.insts[i]
	w := &s.cfg.Wear
	switch in.state {
	case stTuning:
		in.stress += w.StressPerIter * in.pendingIters
		in.usable = s.usableLevels(in.stress)
	case stRemapping:
		in.stress += mapStress + w.StressPerIter*in.pendingIters
		in.usable = s.usableLevels(in.stress)
		in.remapUsable = in.usable
	case stReplacing:
		in.stress = 0
		in.usable = s.usableFresh
		in.remapUsable = s.usableFresh
		in.gen++
	default:
		return
	}
	in.pendingIters = 0
	in.drift = 0
	in.postTune = s.postTuneAcc(in.usable)
	in.acc = in.postTune
	in.state = stServing
}

// recordSample appends one survival-curve point.
func (s *Sim) recordSample() {
	alive := 0
	for i := range s.insts {
		if s.insts[i].alive {
			alive++
		}
	}
	s.survival = append(s.survival, SurvivalPoint{
		Tick:  s.clock,
		Alive: float64(alive) / float64(len(s.insts)),
	})
}

// Finish assembles the result after the configured horizon.
func (s *Sim) Finish() Result {
	if len(s.survival) == 0 || s.survival[len(s.survival)-1].Tick != s.clock {
		s.recordSample()
	}
	s.tel.observeQuantiles(s)
	alive := s.survival[len(s.survival)-1].Alive
	return Result{
		Instances:       s.cfg.Instances,
		Ticks:           s.cfg.Ticks,
		Survival:        s.survival,
		Deaths:          s.deaths,
		FirstDeathTick:  s.firstDeath,
		Replacements:    s.replacements,
		ReplacementCost: s.cost,
		Served:          s.servedTotal,
		Dropped:         s.dropped,
		Retunes:         s.retunes,
		Remaps:          s.remaps,
		TuneIters:       s.tuneIters,
		DowntimeTicks:   s.downtime,
		AccP50:          s.accSketch.Quantile(0.50),
		AccP99:          s.accSketch.Quantile(0.01),
		LatencyP50:      s.latSketch.Quantile(0.50),
		LatencyP99:      s.latSketch.Quantile(0.99),
		FinalAlive:      alive,
	}
}

// Run executes a full simulation: New + Ticks ticks + Finish, with a
// cancellation check every 256 ticks.
func Run(ctx context.Context, cfg Config, p device.Params, m aging.Model, tempK float64, seed int64) (Result, error) {
	s, err := New(cfg, p, m, tempK, seed)
	if err != nil {
		return Result{}, err
	}
	for t := 0; t < s.cfg.Ticks; t++ {
		if ctx != nil && t%256 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		s.Tick()
	}
	return s.Finish(), nil
}
