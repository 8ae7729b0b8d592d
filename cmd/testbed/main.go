// Command testbed runs the paper's physical experiment (Sec. IV-B) on
// the discrete-event simulator: experiment.TestbedScenario's lab layout
// (nodes within 50 m of the gateway, one channel, SF10, a ~400 mAh
// battery, hourly w_u dissemination) for one protocol, printing each
// node's outcome. It is the per-node view of `experiments -run fig9`.
//
// Example:
//
//	testbed -protocol bla -theta 1 -nodes 10 -duration 24h
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/config"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/simtime"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "testbed:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		protocol = flag.String("protocol", "bla", "MAC protocol: lorawan, bla, theta-only")
		theta    = flag.Float64("theta", 1, "battery charge cap (paper testbed: H-100)")
		nodes    = flag.Int("nodes", 10, "number of nodes")
		duration = flag.Duration("duration", 24*time.Hour, "simulated time")
		seed     = flag.Uint64("seed", 1, "scenario seed")
	)
	flag.Parse()

	opts := experiment.Options{
		Seed:     *seed,
		Nodes:    *nodes,
		Duration: simtime.FromDuration(*duration),
	}
	cfg := experiment.TestbedScenario(opts, config.ProtocolKind(*protocol), *theta)

	started := time.Now()
	s, err := sim.New(cfg, sim.Hooks{})
	if err != nil {
		return err
	}
	res, err := s.Run()
	if err != nil {
		return err
	}

	fmt.Printf("testbed %s: %d nodes, %v simulated in %v\n\n",
		res.Label, len(res.Nodes), res.Elapsed, time.Since(started).Round(time.Millisecond))
	fmt.Printf("%-5s %-5s %-9s %-9s %-9s %-11s %-11s %s\n",
		"node", "SF", "packets", "PRR", "attempts", "latency(s)", "utility", "degradation")
	for _, n := range res.Nodes {
		fmt.Printf("%-5d %-5v %-9d %-9.3f %-9.2f %-11.1f %-11.3f %.3e (cycle %.2e)\n",
			n.ID, n.SF, n.Stats.Generated, n.Stats.PRR(), n.Stats.AvgAttempts(),
			n.Stats.AvgLatencyDelivered().Seconds(), n.Stats.AvgUtility(),
			n.Degradation.Total, n.Degradation.Cycle)
	}
	return nil
}
