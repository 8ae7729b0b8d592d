package experiment

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
)

// This file is the bridge between the experiment runners and the
// internal/runner worker pool. Every registered experiment fans its
// independent simulation runs (one per variant x replicate x scenario)
// out through mapRuns; because each run derives all randomness from its
// scenario seed and results are collected in submission order, the
// rendered tables are byte-identical whatever the worker count.

// syncWriter serializes progress lines written by concurrent workers.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// parallel returns a copy of o whose Log writer is safe for concurrent
// use. Call it once at the top of every fan-out entry point.
func (o Options) parallel() Options {
	if o.Log != nil {
		if _, ok := o.Log.(*syncWriter); !ok {
			o.Log = &syncWriter{w: o.Log}
		}
	}
	return o
}

// mapRuns fans n independent jobs across the experiment's worker pool
// and returns their results in job order. The first error cancels the
// remaining jobs.
func mapRuns[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	return runner.Map(context.Background(), runner.Workers(o.Workers), n,
		func(_ context.Context, i int) (T, error) { return fn(i) })
}

// simulate builds and runs one scenario: the unit of fan-out.
func simulate(cfg config.Scenario, hooks sim.Hooks) (*sim.Result, error) {
	s, err := sim.New(cfg, hooks)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// runScenarios executes every scenario Replicates times through the
// worker pool and returns one pooled summary per scenario, in input
// order. All scenarios keep their base seed (common random numbers: a
// protocol comparison runs every treatment on identical deployments);
// only replicates perturb it, via runner.DeriveSeed with the experiment
// name as the stream label. Replicate 0 maps to the base seed, so the
// default single-replicate output is byte-identical to a serial run.
func runScenarios(o Options, name string, labels []string, scenarios []config.Scenario) ([]*runSummary, error) {
	o = o.parallel()
	reps := o.replicates()
	sums, err := mapRuns(o, len(scenarios)*reps, func(i int) (*runSummary, error) {
		si, rep := i/reps, i%reps
		cfg := scenarios[si]
		cfg.Seed = runner.DeriveSeed(cfg.Seed, name, rep)
		if reps > 1 {
			o.logf("%s: running %s (%d nodes, %v, replicate %d/%d)",
				name, labels[si], cfg.Nodes, cfg.Duration, rep+1, reps)
		} else {
			o.logf("%s: running %s (%d nodes, %v)", name, labels[si], cfg.Nodes, cfg.Duration)
		}
		var rec *obs.Recorder
		if o.ObsDir != "" {
			rec = obs.New(obs.Manifest{
				Experiment: name,
				Label:      labels[si],
				Seed:       cfg.Seed,
				ConfigHash: cfg.Fingerprint(),
				Replicate:  rep,
				Nodes:      cfg.Nodes,
			}, o.ObsSampleEvery)
		}
		res, err := simulate(cfg, sim.Hooks{Obs: rec})
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", labels[si], err)
		}
		if rec != nil {
			base := fmt.Sprintf("%s_s%02d_r%02d", name, si, rep)
			if err := rec.ExportFiles(o.ObsDir, base); err != nil {
				return nil, fmt.Errorf("experiment: %s: obs export: %w", labels[si], err)
			}
		}
		sum := summarize(res)
		sum.label = labels[si]
		return sum, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*runSummary, len(scenarios))
	for si := range out {
		out[si] = mergeSummaries(sums[si*reps : (si+1)*reps])
	}
	return out, nil
}

// mergeSummaries pools replicate summaries of one scenario: per-node
// distributions concatenate (box statistics then cover every node of
// every replicate), counters add, and per-run totals average so that a
// replicated table stays comparable to a single run.
func mergeSummaries(parts []*runSummary) *runSummary {
	if len(parts) == 1 {
		return parts[0]
	}
	m := &runSummary{label: parts[0].label}
	// Pre-size the pooled distributions: replicate node counts are known,
	// so the concatenation never regrows.
	var total int
	for _, p := range parts {
		total += len(p.prr)
	}
	m.prr = make([]float64, 0, total)
	m.attempts = make([]float64, 0, total)
	m.utility = make([]float64, 0, total)
	m.latencyS = make([]float64, 0, total)
	m.latPenS = make([]float64, 0, total)
	m.degs = make([]float64, 0, total)
	m.cycles = make([]float64, 0, total)
	m.majorityWn = make([]int, 0, total)
	for _, p := range parts {
		m.prr = append(m.prr, p.prr...)
		m.attempts = append(m.attempts, p.attempts...)
		m.utility = append(m.utility, p.utility...)
		m.latencyS = append(m.latencyS, p.latencyS...)
		m.latPenS = append(m.latPenS, p.latPenS...)
		m.degs = append(m.degs, p.degs...)
		m.cycles = append(m.cycles, p.cycles...)
		m.majorityWn = append(m.majorityWn, p.majorityWn...)
		m.txEnergyJ += p.txEnergyJ
		m.neverSent += p.neverSent
		m.generated += p.generated
		m.brownouts += p.brownouts
		m.staleWu += p.staleWu
		m.elapsedD += p.elapsedD
	}
	m.txEnergyJ /= float64(len(parts))
	m.elapsedD /= float64(len(parts))
	return m
}

// noteReplicates records the replicate count on a pooled table.
func noteReplicates(t *Table, o Options) {
	if o.replicates() > 1 {
		t.AddNote("pooled over %d replicates with derived seeds", o.replicates())
	}
}
