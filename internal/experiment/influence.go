package experiment

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Fig3 regenerates the paper's Fig. 3 "degradation influence": how a
// node's normalized degradation w_u shifts its forecast-window choices.
// The paper plots two probe nodes over two sampling periods; a
// single-pair probe is noisy at network scale, so this regeneration
// aggregates the same contrast over the most- and least-degraded
// quartiles of the network, split into energy-rich daylight hours
// (harvest covers the transmission: little reason to defer) and night
// hours (every window drains the battery). Paper scale: 100 nodes, the
// final two weeks of a 90-day run.
func Fig3(o Options) (*Table, error) {
	o = o.parallel()
	reps := o.replicates()

	// One replicate's pooled window sums per degradation quartile.
	type groupSums struct {
		loDay, loDayN, loNight, loNightN float64
		hiDay, hiDayN, hiNight, hiNightN float64
	}
	runs, err := mapRuns(o, reps, func(rep int) (groupSums, error) {
		cfg := config.Default().WithSeed(o.seed())
		cfg.Nodes = o.nodes(100)
		cfg.Duration = o.duration(90 * simtime.Day)
		cfg.Protocol = config.ProtocolBLA
		cfg.Theta = 0.5
		cfg.Seed = runner.DeriveSeed(cfg.Seed, "fig3", rep)

		type acc struct {
			daySum, dayN     float64
			nightSum, nightN float64
		}
		decisions := make([]acc, cfg.Nodes)
		observeFrom := simtime.Time(cfg.Duration - 14*simtime.Day)
		if observeFrom < 0 {
			observeFrom = 0
		}
		hooks := sim.Hooks{OnDecision: func(nodeID int, genAt simtime.Time, _ int, window int, drop bool) {
			if drop || genAt < observeFrom {
				return
			}
			a := &decisions[nodeID]
			switch h := genAt.TimeOfDay() / simtime.Hour; {
			case h >= 10 && h < 15: // solid daylight
				a.daySum += float64(window)
				a.dayN++
			case h >= 22 || h < 4: // night
				a.nightSum += float64(window)
				a.nightN++
			}
		}}

		o.logf("fig3: H-50 %d nodes, %v", cfg.Nodes, cfg.Duration)
		res, err := simulate(cfg, hooks)
		if err != nil {
			return groupSums{}, err
		}

		// Rank nodes by final ground-truth degradation.
		order := make([]int, len(res.Nodes))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return res.Nodes[order[a]].Degradation.Total < res.Nodes[order[b]].Degradation.Total
		})
		quartile := max(1, len(order)/4)

		var g groupSums
		for _, id := range order[:quartile] {
			g.loDay += decisions[id].daySum
			g.loDayN += decisions[id].dayN
			g.loNight += decisions[id].nightSum
			g.loNightN += decisions[id].nightN
		}
		for _, id := range order[len(order)-quartile:] {
			g.hiDay += decisions[id].daySum
			g.hiDayN += decisions[id].dayN
			g.hiNight += decisions[id].nightSum
			g.hiNightN += decisions[id].nightN
		}
		return g, nil
	})
	if err != nil {
		return nil, err
	}

	// Pool the raw sums across replicates before forming averages: every
	// decision counts once, whichever replicate produced it.
	var g groupSums
	for _, r := range runs {
		g.loDay += r.loDay
		g.loDayN += r.loDayN
		g.loNight += r.loNight
		g.loNightN += r.loNightN
		g.hiDay += r.hiDay
		g.hiDayN += r.hiDayN
		g.hiNight += r.hiNight
		g.hiNightN += r.hiNightN
	}

	fmtAvg := func(sum, cnt float64) string {
		if cnt == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", sum/cnt)
	}
	t := &Table{
		ID:      "fig3",
		Title:   "Degradation influence on forecast window selection (final 2 weeks)",
		Columns: []string{"node group", "avg window (energy-rich hours)", "avg window (night)"},
	}
	t.AddRow("least degraded quartile", fmtAvg(g.loDay, g.loDayN), fmtAvg(g.loNight, g.loNightN))
	t.AddRow("most degraded quartile", fmtAvg(g.hiDay, g.hiDayN), fmtAvg(g.hiNight, g.hiNightN))
	t.AddNote("paper Fig. 3: with abundant energy both groups pick an early window; when harvest cannot cover the TX, degraded nodes defer")
	t.AddNote("w_u compresses toward 1 as shared calendar aging dominates, so group contrasts shrink over a deployment's life")
	noteReplicates(t, o)
	return t, nil
}
