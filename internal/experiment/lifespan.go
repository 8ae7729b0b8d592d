package experiment

import (
	"fmt"
	"sort"

	"repro/internal/battery"
	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Fig2 regenerates the paper's Fig. 2: degradation of a regular LoRa
// (pure ALOHA) node over 5 years in a 100-node network, decomposed into
// calendar aging, cycle aging, and total capacity fade. The reported
// node is the network median by final degradation. Paper scale: 100
// nodes, 5 years.
func Fig2(o Options) (*Table, error) {
	o = o.parallel()
	reps := o.replicates()

	type sample struct {
		months int
		b      battery.Breakdown
	}
	type fig2run struct {
		series     []sample
		final      battery.Breakdown
		elapsedYrs float64
	}
	runs, err := mapRuns(o, reps, func(rep int) (fig2run, error) {
		cfg := config.Default().WithSeed(o.seed())
		cfg.Nodes = o.nodes(100)
		cfg.Duration = o.duration(5 * simtime.Year)
		cfg.Protocol = config.ProtocolLoRaWAN
		applyAging(&cfg, o.aging())
		cfg.Seed = runner.DeriveSeed(cfg.Seed, "fig2", rep)

		var r fig2run
		var months int
		hooks := sim.Hooks{OnMonth: func(now simtime.Time, nodes []*sim.Node) {
			months++
			if months%6 != 0 { // sample twice per year
				return
			}
			r.series = append(r.series, sample{months: months, b: medianBreakdown(now, nodes)})
		}}

		o.logf("fig2: LoRaWAN %d nodes, %v", cfg.Nodes, cfg.Duration)
		res, err := simulate(cfg, hooks)
		if err != nil {
			return fig2run{}, err
		}

		// Final point from the run result: the network-median node.
		degs := make([]float64, 0, len(res.Nodes))
		for _, n := range res.Nodes {
			degs = append(degs, n.Degradation.Total)
		}
		sort.Float64s(degs)
		target := degs[len(degs)/2]
		for _, n := range res.Nodes {
			if n.Degradation.Total == target {
				r.final = n.Degradation
				break
			}
		}
		r.elapsedYrs = res.Elapsed.Days() / 365 * o.aging()
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	// Pool replicates: the duration is fixed, so every replicate samples
	// the same months and breakdowns average element-wise. A single
	// replicate passes through unchanged.
	avg := runs[0]
	if reps > 1 {
		for _, r := range runs[1:] {
			for i := range avg.series {
				avg.series[i].b.Calendar += r.series[i].b.Calendar
				avg.series[i].b.Cycle += r.series[i].b.Cycle
				avg.series[i].b.Total += r.series[i].b.Total
			}
			avg.final.Calendar += r.final.Calendar
			avg.final.Cycle += r.final.Cycle
			avg.final.Total += r.final.Total
			avg.elapsedYrs += r.elapsedYrs
		}
		inv := 1 / float64(reps)
		for i := range avg.series {
			avg.series[i].b.Calendar *= inv
			avg.series[i].b.Cycle *= inv
			avg.series[i].b.Total *= inv
		}
		avg.final.Calendar *= inv
		avg.final.Cycle *= inv
		avg.final.Total *= inv
		avg.elapsedYrs *= inv
	}

	t := &Table{
		ID:      "fig2",
		Title:   "Battery degradation of a regular LoRa node (median of network)",
		Columns: []string{"years", "calendar D_cal", "cycle D_cyc", "total D"},
	}
	for _, sm := range avg.series {
		t.AddRow(
			fmt.Sprintf("%.1f", float64(sm.months)*30/365*o.aging()),
			fmt.Sprintf("%.5f", sm.b.Calendar),
			fmt.Sprintf("%.6f", sm.b.Cycle),
			fmt.Sprintf("%.5f", sm.b.Total),
		)
	}
	t.AddRow(
		fmt.Sprintf("%.1f", avg.elapsedYrs),
		fmt.Sprintf("%.5f", avg.final.Calendar),
		fmt.Sprintf("%.6f", avg.final.Cycle),
		fmt.Sprintf("%.5f", avg.final.Total),
	)
	t.AddNote("paper claim: calendar aging dominates cycle aging for LoRa duty cycles")
	noteAging(t, o)
	noteReplicates(t, o)
	return t, nil
}

func medianBreakdown(now simtime.Time, nodes []*sim.Node) battery.Breakdown {
	type nd struct {
		total float64
		b     battery.Breakdown
	}
	all := make([]nd, 0, len(nodes))
	for _, n := range nodes {
		b := n.Batt.Damage(now)
		all = append(all, nd{total: b.Total, b: b})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].total < all[j].total })
	return all[len(all)/2].b
}

// lifespanVariants are the Fig. 7/8 protocols: the baseline, the full
// proposal, and the paper's H-50C ablation (theta cap without window
// selection).
func lifespanVariants() []variant {
	return []variant{
		{label: "LoRaWAN", protocol: config.ProtocolLoRaWAN, theta: 1},
		{label: "H-50", protocol: config.ProtocolBLA, theta: 0.5},
		{label: "H-50C", protocol: config.ProtocolThetaOnly, theta: 0.5},
	}
}

// lifespanRun is one run-to-EoL outcome.
type lifespanRun struct {
	label        string
	monthlyMax   []float64
	lifespanDays float64
}

func runLifespans(o Options) ([]lifespanRun, error) {
	o = o.parallel()
	vs := lifespanVariants()
	reps := o.replicates()
	runs, err := mapRuns(o, len(vs)*reps, func(i int) (lifespanRun, error) {
		v := vs[i/reps]
		rep := i % reps
		cfg := config.Default().WithSeed(o.seed())
		cfg.Nodes = o.nodes(100)
		cfg.Protocol = v.protocol
		cfg.Theta = v.theta
		cfg.RunToEoL = true
		cfg.MaxDuration = 30 * simtime.Year
		applyAging(&cfg, o.aging())
		cfg.Seed = runner.DeriveSeed(cfg.Seed, "lifespan", rep)
		o.logf("lifespan: running %s to EoL (%d nodes, aging x%g)", v.label, cfg.Nodes, o.aging())
		res, err := simulate(cfg, sim.Hooks{})
		if err != nil {
			return lifespanRun{}, fmt.Errorf("experiment: %s: %w", v.label, err)
		}
		days := res.LifespanDays
		if days == 0 {
			days = res.Elapsed.Days() // EoL not reached within the cap
		}
		return lifespanRun{
			label:        v.label,
			monthlyMax:   res.MonthlyMaxDeg,
			lifespanDays: days * o.aging(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// Pool replicates per variant: lifespans average; the monthly-max
	// series averages element-wise over the months every replicate
	// reached (run-to-EoL lengths differ across seeds).
	out := make([]lifespanRun, len(vs))
	for vi := range vs {
		group := runs[vi*reps : (vi+1)*reps]
		merged := group[0]
		if reps > 1 {
			minLen := len(group[0].monthlyMax)
			for _, r := range group[1:] {
				minLen = min(minLen, len(r.monthlyMax))
			}
			merged.monthlyMax = append([]float64(nil), group[0].monthlyMax[:minLen]...)
			for _, r := range group[1:] {
				merged.lifespanDays += r.lifespanDays
				for m := 0; m < minLen; m++ {
					merged.monthlyMax[m] += r.monthlyMax[m]
				}
			}
			merged.lifespanDays /= float64(reps)
			for m := range merged.monthlyMax {
				merged.monthlyMax[m] /= float64(reps)
			}
		}
		out[vi] = merged
	}
	return out, nil
}

// Lifespan regenerates Fig. 7 (max network degradation per month until
// the first battery reaches EoL) and Fig. 8 (network battery lifespan)
// from one run set. Paper scale: 100 nodes, real aging (runs for up to
// ~14 simulated years).
func Lifespan(o Options) ([]*Table, error) {
	runs, err := runLifespans(o)
	if err != nil {
		return nil, err
	}

	fig7 := &Table{
		ID:      "fig7",
		Title:   "Max degradation (%) of the nodes per month",
		Columns: []string{"month"},
	}
	maxLen := 0
	for _, r := range runs {
		fig7.Columns = append(fig7.Columns, r.label)
		if len(r.monthlyMax) > maxLen {
			maxLen = len(r.monthlyMax)
		}
	}
	step := max(1, maxLen/24) // at most ~24 printed rows
	for m := 0; m < maxLen; m += step {
		row := []string{fmt.Sprintf("%d", int(float64(m+1)*o.aging()))}
		for _, r := range runs {
			if m < len(r.monthlyMax) {
				row = append(row, fmt.Sprintf("%.2f", 100*r.monthlyMax[m]))
			} else {
				row = append(row, "EoL")
			}
		}
		fig7.AddRow(row...)
	}
	noteAging(fig7, o)

	fig8 := &Table{
		ID:      "fig8",
		Title:   "Network battery lifespan",
		Columns: []string{"protocol", "lifespan days", "lifespan years", "vs LoRaWAN"},
	}
	base := runs[0].lifespanDays
	for _, r := range runs {
		fig8.AddRow(
			r.label,
			fmt.Sprintf("%.0f", r.lifespanDays),
			fmt.Sprintf("%.2f", r.lifespanDays/365),
			fmt.Sprintf("%+.1f%%", 100*(r.lifespanDays/base-1)),
		)
	}
	fig8.AddNote("paper: LoRaWAN 2980 days (8.1 y); H-50 13.86 y (+69.7%%)")
	noteAging(fig8, o)
	noteReplicates(fig7, o)
	noteReplicates(fig8, o)
	return []*Table{fig7, fig8}, nil
}

// applyAging accelerates the degradation model by the given factor:
// calendar and cycle stress scale together, so end-of-life arrives
// factor-times sooner with an otherwise identical trajectory shape.
func applyAging(cfg *config.Scenario, factor float64) {
	if factor <= 1 {
		return
	}
	cfg.BatteryModel.K1 *= factor
	cfg.BatteryModel.K6 *= factor
}

func noteAging(t *Table, o Options) {
	if o.aging() > 1 {
		t.AddNote("aging accelerated x%g; reported times are de-scaled back to real aging", o.aging())
	}
}
