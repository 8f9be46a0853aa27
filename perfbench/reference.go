package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
)

// defaultSeed is the workload seed whose simulated outputs are pinned
// in reference.json.
const defaultSeed = 1

// fixtureSim is the outcome of one fixture-lenet op.
type fixtureSim struct {
	Seed      int64   `json:"seed"`
	NormalAcc float64 `json:"normal_acc"`
	SkewedAcc float64 `json:"skewed_acc"`
	Target    float64 `json:"target"`
}

// serveSim is the simulated outcome of one serve job, which all new
// specs of a run share: they differ only in apps_per_cycle, which
// scales lifetime_apps and nothing else.
type serveSim struct {
	Cycles    float64 `json:"cycles"`
	Failed    float64 `json:"failed"`
	FinalAcc  float64 `json:"final_acc"`
	TargetAcc float64 `json:"target_acc"`
}

// reference is the committed record of the default seed's outputs.
type reference struct {
	// Lifetime maps a lifetime workload and a panel fixture seed to the
	// outcome of the op on that fixture.
	Lifetime map[string]map[string][]runSim `json:"lifetime"`
	// Fixture lists fixture-lenet's ops in run order.
	Fixture []fixtureSim `json:"fixture"`
	// Serve is the serve-jobs job outcome.
	Serve *serveSim `json:"serve"`
}

func readReference(path string) (*reference, error) {
	ref := &reference{}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return ref, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	return ref, nil
}

func (r *reference) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checker decides whether an op's simulated outputs are right: the
// first op on a key fixes the expected value for every later op on the
// same key, and at the default seed each key must also match the
// reference. In write mode the reference is recorded instead.
type checker struct {
	o    options
	seen map[string]any
}

func newChecker(o options) *checker { return &checker{o: o, seen: map[string]any{}} }

// repeat checks got against the first value seen for key.
func (c *checker) repeat(key string, got any, same func(a, b any) bool) bool {
	prev, ok := c.seen[key]
	if !ok {
		c.seen[key] = got
		return true
	}
	return same(prev, got)
}

// lifetime checks one lifetime op on the panel fixture of seed
// fixtureSeed. Lifetime ops run on the fixed panel, so the reference
// applies at every workload seed.
func (c *checker) lifetime(fixtureSeed int64, sims []runSim) bool {
	key := fmt.Sprint(fixtureSeed)
	ok := c.repeat("lifetime/"+key, sims, func(a, b any) bool { return sameSim(a.([]runSim), b.([]runSim)) })
	ref := c.o.ref
	if c.o.writeRef {
		if ref.Lifetime == nil {
			ref.Lifetime = map[string]map[string][]runSim{}
		}
		if ref.Lifetime[c.o.workload] == nil {
			ref.Lifetime[c.o.workload] = map[string][]runSim{}
		}
		if prev := ref.Lifetime[c.o.workload][key]; prev == nil || knowsPulses(sims) {
			ref.Lifetime[c.o.workload][key] = sims
		}
		return ok
	}
	want, found := ref.Lifetime[c.o.workload][key]
	return ok && found && sameSim(want, sims)
}

func knowsPulses(sims []runSim) bool { return len(sims) > 0 && sims[0].DevicePulses >= 0 }

// fixture checks the i-th fixture-lenet op.
func (c *checker) fixture(i int, got fixtureSim) bool {
	ok := got.Target > 0 && got.Target <= 1 && got.NormalAcc > 0.1 && got.SkewedAcc > 0.1
	if c.o.seed != defaultSeed {
		return ok
	}
	if c.o.writeRef {
		c.o.ref.Fixture = append(c.o.ref.Fixture[:min(i, len(c.o.ref.Fixture))], got)
		return ok
	}
	return ok && i < len(c.o.ref.Fixture) && c.o.ref.Fixture[i] == got
}

// serve checks one finished serve job's simulated outcome. Every job
// runs the same simulation (see serveSpec), so the reference applies at
// every workload seed.
func (c *checker) serve(got serveSim) bool {
	ok := c.repeat("serve", got, func(a, b any) bool { return reflect.DeepEqual(a, b) })
	if c.o.writeRef {
		c.o.ref.Serve = &got
		return ok
	}
	return ok && c.o.ref.Serve != nil && *c.o.ref.Serve == got
}
