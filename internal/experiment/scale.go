package experiment

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Scale probes single-run large-N throughput: one simulation per rung of
// a doubling node ladder up to the paper's densest deployment, all on
// the identical scenario seed. The table carries only deterministic
// workload metrics (counts and per-node averages); wall-clock throughput
// is reported through Options.Log so the rendered artifact stays
// byte-identical across machines and worker counts.
func Scale(o Options) ([]*Table, error) {
	o = o.parallel()
	base := o.nodes(1000)
	duration := o.duration(2 * simtime.Day)
	ladder := []int{base / 8, base / 4, base / 2, base}

	t := &Table{
		ID:      "scale",
		Title:   "Single-run scaling ladder (BLA H-50)",
		Columns: []string{"nodes", "generated", "delivered", "avg PRR", "avg attempts"},
	}
	for _, n := range ladder {
		if n < 1 {
			n = 1
		}
		cfg := config.Default().WithSeed(o.seed())
		cfg.Nodes = n
		cfg.Duration = duration
		cfg.Protocol = config.ProtocolBLA
		cfg.Theta = 0.5

		started := time.Now()
		res, err := simulate(cfg, sim.Hooks{})
		if err != nil {
			return nil, fmt.Errorf("experiment: scale %d nodes: %w", n, err)
		}
		elapsed := time.Since(started)

		var generated, delivered int64
		var prrSum, attSum float64
		for _, node := range res.Nodes {
			generated += node.Stats.Generated
			delivered += node.Stats.Delivered
			prrSum += node.Stats.PRR()
			attSum += node.Stats.AvgAttempts()
		}
		nn := float64(len(res.Nodes))
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", generated),
			fmt.Sprintf("%d", delivered),
			fmt.Sprintf("%.3f", prrSum/nn),
			fmt.Sprintf("%.2f", attSum/nn),
		)
		simDays := duration.Seconds() / (24 * 3600)
		o.logf("scale: %d nodes, %v simulated in %v (%.1f sim-days/s)",
			n, cfg.Duration, elapsed.Round(time.Millisecond),
			simDays/elapsed.Seconds())
	}
	t.AddNote("ladder runs serially; throughput lines go to -v only to keep the table deterministic")
	return []*Table{t}, nil
}
