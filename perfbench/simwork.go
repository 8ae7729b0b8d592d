package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// cityDay is the paper's congested single-gateway regime at city
// density: 1000 nodes on one channel for one day (the Sweep1000Nodes
// rung of bench_test.go).
func cityDay(seed uint64) config.Scenario {
	cfg := config.Default().WithSeed(seed)
	cfg.Nodes = 1000
	cfg.Duration = simtime.Day
	return cfg
}

// lifespanYear is the first year of the paper's lifespan runs at the
// size of the SimulatorYear rung of bench_test.go: 100 nodes.
func lifespanYear(seed uint64) config.Scenario {
	cfg := config.Default().WithSeed(seed)
	cfg.Nodes = 100
	cfg.Duration = simtime.Year
	return cfg
}

// simWorkload runs one simulation per repetition: sim.New is the set-up.
// An operation is one simulated month (timed between the simulator's
// monthly ticks), or the whole Run when the scenario is shorter than a
// month; a year's days after its last full month are not an operation.
type simWorkload struct {
	scenario func(seed uint64) config.Scenario
	// first is repetition 0's result, kept for the reference check.
	first *sim.Result
}

func (w *simWorkload) rep(m *meter, seed uint64, i int) error {
	cfg := w.scenario(subSeed(seed, i))
	if i < 0 {
		// The warm-up only has to run every code path once.
		cfg.Duration = min(cfg.Duration, 30*simtime.Day)
	}
	months := int(cfg.Duration / (30 * simtime.Day))
	var hooks sim.Hooks
	if m.traced {
		hooks.Obs = obs.New(obs.Manifest{Tool: "perfbench"}, simtime.Day)
	}
	var ops []float64
	var last time.Time
	hooks.OnMonth = func(simtime.Time, []*sim.Node) {
		now := time.Now()
		ops = append(ops, float64(now.Sub(last).Nanoseconds())/1e6)
		last = now
	}
	t0 := time.Now()
	s, err := sim.New(cfg, hooks)
	if err != nil {
		return err
	}
	setup := time.Since(t0)
	a0 := allocated()
	t1 := time.Now()
	last = t1
	res, err := s.Run()
	busy := time.Since(t1)
	allocB := allocated() - a0
	if months == 0 {
		ops = append(ops, float64(busy.Nanoseconds())/1e6)
		months = 1
	}
	m.attempted += months
	if err == nil && len(ops) != months {
		err = fmt.Errorf("%d monthly ticks, want %d", len(ops), months)
	}
	if err == nil {
		err = checkResult(cfg, res)
	}
	if err != nil {
		m.failed += months
		return err
	}
	m.setups = append(m.setups, setup.Seconds())
	m.ops = append(m.ops, ops...)
	m.busy += busy
	m.allocB += allocB
	if i == 0 {
		w.first = res
	}
	for _, n := range res.Nodes {
		st := n.Stats
		m.uplinks += st.Attempts
		m.count("mac.packets", float64(st.Generated))
		m.count("mac.refused", float64(st.NeverSent))
		m.count("mac.sent", float64(st.Generated-st.NeverSent))
		m.count("mac.attempts", float64(st.Attempts))
	}
	if rec := hooks.Obs; rec != nil {
		for name, counter := range map[string]string{
			"engine.events":        "engine.events_executed",
			"medium.uplinks":       "medium.uplinks",
			"medium.decoded":       "medium.uplinks_decoded",
			"netserver.packets":    "netserver.packets_ingested",
			"netserver.recomputes": "netserver.recomputes",
		} {
			m.count(name, float64(rec.Counter(counter).Value()))
		}
	}
	return nil
}

// verify re-runs repetition 0's scenario on the reference path and
// requires an identical result. The reference run records observability,
// which must not change a result, and, while the scenario has the
// DisableDecisionTable knob, turns the BLA decision table off so every
// decision runs Algorithm 1 in full. The knob is set by name so that
// this check still builds if the table and its knob are removed.
func (w *simWorkload) verify(seed uint64) error {
	if w.first == nil {
		return fmt.Errorf("repetition 0 produced no result")
	}
	cfg := w.scenario(subSeed(seed, 0))
	if f := reflect.ValueOf(&cfg).Elem().FieldByName("DisableDecisionTable"); f.IsValid() && f.Kind() == reflect.Bool {
		f.SetBool(true)
	}
	rec := obs.New(obs.Manifest{Tool: "perfbench"}, simtime.Day)
	s, err := sim.New(cfg, sim.Hooks{Obs: rec})
	if err != nil {
		return err
	}
	ref, err := s.Run()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(ref, w.first) {
		return fmt.Errorf("result differs from the reference run")
	}
	return nil
}

// checkResult applies the accounting invariants every run must satisfy.
func checkResult(cfg config.Scenario, res *sim.Result) error {
	if len(res.Nodes) != cfg.Nodes {
		return fmt.Errorf("%d node results, want %d", len(res.Nodes), cfg.Nodes)
	}
	if res.Elapsed != cfg.Duration {
		return fmt.Errorf("run ended at %v, want %v", res.Elapsed, cfg.Duration)
	}
	var generated, delivered int64
	for _, n := range res.Nodes {
		st := n.Stats
		switch {
		case st.Delivered+st.Dropped > st.Generated:
			return fmt.Errorf("node %d: %d delivered + %d dropped > %d generated", n.ID, st.Delivered, st.Dropped, st.Generated)
		case st.NeverSent > st.Dropped:
			return fmt.Errorf("node %d: %d refused > %d dropped", n.ID, st.NeverSent, st.Dropped)
		case st.Attempts < st.Delivered:
			return fmt.Errorf("node %d: %d attempts < %d delivered", n.ID, st.Attempts, st.Delivered)
		case !(n.FinalSoC >= 0 && n.FinalSoC <= 1):
			return fmt.Errorf("node %d: final SoC %v outside [0,1]", n.ID, n.FinalSoC)
		case !(n.Degradation.Total > 0) || math.IsInf(n.Degradation.Total, 0):
			return fmt.Errorf("node %d: degradation %v not positive and finite", n.ID, n.Degradation.Total)
		case !(st.TxEnergyJ >= 0):
			return fmt.Errorf("node %d: TX energy %v", n.ID, st.TxEnergyJ)
		}
		generated += st.Generated
		delivered += st.Delivered
	}
	if generated == 0 || delivered == 0 {
		return fmt.Errorf("no traffic: %d generated, %d delivered", generated, delivered)
	}
	return nil
}
