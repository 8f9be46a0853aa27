package fleet

import (
	"fmt"

	"memlife/internal/telemetry"
)

// maxQueueGauges caps how many per-instance queue-depth gauges are
// registered — large fleets export the first few plus the fleet-wide
// total rather than thousands of instruments.
const maxQueueGauges = 16

// fleetTel holds the simulator's telemetry handles, resolved once at
// New from the global registry (all nil when telemetry is disabled;
// every Set below is then a no-op). Gauges reflect simulation state on
// the tick clock, not wall time, so snapshots stay deterministic.
type fleetTel struct {
	live         *telemetry.Gauge // instances currently serving
	queueTotal   *telemetry.Gauge // fleet-wide backlog
	perQueue     []*telemetry.Gauge
	deaths       *telemetry.Gauge
	replacements *telemetry.Gauge
	retunes      *telemetry.Gauge
	remaps       *telemetry.Gauge
	dropped      *telemetry.Gauge
	served       *telemetry.Gauge
	p99Latency   *telemetry.Gauge // latency proxy (ticks to drain), p99
	p99Acc       *telemetry.Gauge // accuracy met by 99% of requests
}

func newFleetTel(instances int) *fleetTel {
	r := telemetry.Global()
	if r == nil {
		return &fleetTel{perQueue: make([]*telemetry.Gauge, 0)}
	}
	t := &fleetTel{
		live:         r.Gauge("fleet/live_instances"),
		queueTotal:   r.Gauge("fleet/queue_depth"),
		deaths:       r.Gauge("fleet/deaths"),
		replacements: r.Gauge("fleet/replacements"),
		retunes:      r.Gauge("fleet/retunes"),
		remaps:       r.Gauge("fleet/remaps"),
		dropped:      r.Gauge("fleet/dropped"),
		served:       r.Gauge("fleet/served"),
		p99Latency:   r.Gauge("fleet/p99_latency_proxy"),
		p99Acc:       r.Gauge("fleet/p99_accuracy"),
	}
	n := instances
	if n > maxQueueGauges {
		n = maxQueueGauges
	}
	t.perQueue = make([]*telemetry.Gauge, n)
	for i := range t.perQueue {
		t.perQueue[i] = r.Gauge(fmt.Sprintf("fleet/instance%02d/queue_depth", i))
	}
	return t
}

// observe publishes the per-tick fleet state.
func (t *fleetTel) observe(s *Sim) {
	live := 0
	var total int64
	for i := range s.insts {
		in := &s.insts[i]
		if in.state == stServing {
			live++
		}
		total += in.queue
		if i < len(t.perQueue) {
			t.perQueue[i].Set(float64(in.queue))
		}
	}
	t.live.Set(float64(live))
	t.queueTotal.Set(float64(total))
	t.deaths.Set(float64(s.deaths))
	t.replacements.Set(float64(s.replacements))
	t.retunes.Set(float64(s.retunes))
	t.remaps.Set(float64(s.remaps))
	t.dropped.Set(float64(s.dropped))
	t.served.Set(float64(s.servedTotal))
}

// observeQuantiles publishes the sketch-derived tail gauges (sampled
// at survival-curve resolution — the sketch walk is O(buckets)).
func (t *fleetTel) observeQuantiles(s *Sim) {
	if t.p99Latency == nil && t.p99Acc == nil {
		return
	}
	t.p99Latency.Set(s.latSketch.Quantile(0.99))
	t.p99Acc.Set(s.accSketch.Quantile(0.01))
}
