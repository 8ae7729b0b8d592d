// Command blasim runs a single LoRa network simulation and prints a
// metric summary: the workhorse for exploring scenarios outside the
// predefined experiments.
//
// Examples:
//
//	blasim -protocol lorawan -nodes 500 -duration 720h
//	blasim -protocol bla -theta 0.5 -nodes 100 -duration 8760h -json
//	blasim -protocol bla -theta 0.5 -run-to-eol -aging 10
//	blasim -downlink-loss 0.3 -outage-len 24h -outage-every 168h -wu-ttl 2h
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/lora"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// summary is the machine-readable output of one run.
type summary struct {
	Protocol         string  `json:"protocol"`
	Nodes            int     `json:"nodes"`
	SimulatedDays    float64 `json:"simulatedDays"`
	PRRMean          float64 `json:"prrMean"`
	PRRMin           float64 `json:"prrMin"`
	AvgAttempts      float64 `json:"avgAttempts"`
	AvgUtility       float64 `json:"avgUtility"`
	AvgLatencySec    float64 `json:"avgLatencySec"`
	TotalTxEnergyJ   float64 `json:"totalTxEnergyJ"`
	DegradationMean  float64 `json:"degradationMean"`
	DegradationVar   float64 `json:"degradationVar"`
	DegradationMax   float64 `json:"degradationMax"`
	DroppedByMACPct  float64 `json:"droppedByMacPct"`
	Brownouts        int64   `json:"brownouts,omitempty"`
	StaleWuDecisions int64   `json:"staleWuDecisions,omitempty"`
	LifespanDays     float64 `json:"lifespanDays,omitempty"`
	WallClockSeconds float64 `json:"wallClockSeconds"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "blasim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		protocol  = flag.String("protocol", "bla", "MAC protocol: lorawan, bla, theta-only")
		theta     = flag.Float64("theta", 0.5, "battery charge cap for bla/theta-only")
		weightB   = flag.Float64("wb", 1, "degradation weight w_b")
		nodes     = flag.Int("nodes", 100, "network size")
		gateways  = flag.Int("gateways", 0, "gateway count (0 = scenario default)")
		duration  = flag.Duration("duration", 60*24*time.Hour, "simulated time")
		seed      = flag.Uint64("seed", 1, "scenario seed")
		channels  = flag.Int("channels", 1, "125 kHz uplink channels")
		shards    = flag.Int("shards", 0, "per-cell engine shards: 0 = auto (min of gateways and CPUs), 1 = single heap")
		fixedSF   = flag.Int("sf", 0, "fix all nodes to this SF (0 = link-budget assignment)")
		forecast  = flag.String("forecast", "ewma", "forecaster: ewma, perfect, noisy")
		noise     = flag.Float64("forecast-noise", 0.3, "relative error for the noisy forecaster")
		runToEoL  = flag.Bool("run-to-eol", false, "run until the first battery reaches end of life")
		aging     = flag.Float64("aging", 1, "calendar/cycle aging acceleration factor")
		noHistory = flag.Bool("no-retx-history", false, "disable the Eq. 14 retransmission history")
		jsonOut   = flag.Bool("json", false, "emit the summary as JSON")
		nodeCSV   = flag.String("nodes-csv", "", "also write per-node results to this CSV file")

		obsOn     = flag.Bool("obs", false, "export observability (counters, per-node timelines, manifest) under -obs-dir")
		obsDir    = flag.String("obs-dir", "obs", "observability export directory (with -obs)")
		obsSample = flag.Duration("obs-sample-every", 0, "observability timeline sampling period (0 = 10m default)")

		downLoss     = flag.Float64("downlink-loss", 0, "probability of losing an ACK/beacon after PHY success")
		upLoss       = flag.Float64("uplink-loss", 0, "probability of losing a decoded uplink on the backhaul")
		upDup        = flag.Float64("uplink-dup", 0, "probability of duplicating a decoded uplink on the backhaul")
		outageStart  = flag.Duration("outage-start", 0, "first gateway outage start (with -outage-len)")
		outageLen    = flag.Duration("outage-len", 0, "gateway outage length (0 = no outages)")
		outageEvery  = flag.Duration("outage-every", 0, "outage repeat period (0 = single outage)")
		brownoutMTBF = flag.Duration("brownout-mtbf", 0, "mean time between node brownouts (0 = none)")
		wuTTL        = flag.Duration("wu-ttl", 0, "node-side w_u beacon freshness TTL (0 = never stale)")
		wuFallback   = flag.Float64("wu-stale-fallback", 1, "conservative w_u used once the beacon is stale")
	)
	flag.Parse()

	cfg := config.Default().WithSeed(*seed)
	cfg.Protocol = config.ProtocolKind(*protocol)
	cfg.Theta = *theta
	cfg.WeightB = *weightB
	cfg.Nodes = *nodes
	cfg.Duration = simtime.FromDuration(*duration)
	cfg.Channels = *channels
	if *gateways > 0 {
		cfg.Gateways = *gateways
	}
	cfg.FixedSF = lora.SpreadingFactor(*fixedSF)
	cfg.Forecast = config.ForecastKind(*forecast)
	cfg.ForecastNoise = *noise
	cfg.RunToEoL = *runToEoL
	cfg.DisableRetxHistory = *noHistory
	if *aging > 1 {
		cfg.BatteryModel.K1 *= *aging
		cfg.BatteryModel.K6 *= *aging
	}
	cfg.Faults = faults.Config{
		DownlinkLoss:    *downLoss,
		UplinkLoss:      *upLoss,
		UplinkDup:       *upDup,
		OutageStart:     simtime.FromDuration(*outageStart),
		OutageLen:       simtime.FromDuration(*outageLen),
		OutageEvery:     simtime.FromDuration(*outageEvery),
		BrownoutMTBF:    simtime.FromDuration(*brownoutMTBF),
		WuTTL:           simtime.FromDuration(*wuTTL),
		WuStaleFallback: *wuFallback,
	}

	var rec *obs.Recorder
	if *obsOn {
		rec = obs.New(obs.Manifest{
			Experiment: "blasim",
			Label:      cfg.ProtocolLabel(),
			Seed:       cfg.Seed,
			ConfigHash: cfg.Fingerprint(),
			Nodes:      cfg.Nodes,
		}, simtime.FromDuration(*obsSample))
	}

	exec := config.Exec{Shards: *shards}
	started := time.Now()
	s, err := sim.New(cfg, sim.Hooks{Obs: rec})
	if err != nil {
		return err
	}
	res, err := s.RunOpt(sim.RunOptions{Shards: exec.Shards, Workers: exec.Workers})
	if err != nil {
		return err
	}
	if rec != nil {
		if err := rec.ExportFiles(*obsDir, "run"); err != nil {
			return fmt.Errorf("obs export: %w", err)
		}
		// Like the worker count, the effective shard count is recorded
		// only here: run.jsonl and the CSVs stay byte-identical across
		// -shards values.
		err := obs.WriteInvocationManifest(filepath.Join(*obsDir, "manifest.json"), obs.InvocationManifest{
			Seed:          cfg.Seed,
			Workers:       1,
			Shards:        s.ShardsUsed(),
			SampleEveryMs: int64(rec.SampleEvery() / simtime.Millisecond),
			Runs:          []string{"run.jsonl"},
		})
		if err != nil {
			return fmt.Errorf("obs manifest: %w", err)
		}
	}

	var prr, att, util, lat, deg metrics.Welford
	var txE float64
	var generated, neverSent, brownouts, staleWu int64
	for _, n := range res.Nodes {
		prr.Add(n.Stats.PRR())
		att.Add(n.Stats.AvgAttempts())
		util.Add(n.Stats.AvgUtility())
		lat.Add(n.Stats.AvgLatencyDelivered().Seconds())
		deg.Add(n.Degradation.Total)
		txE += n.Stats.TxEnergyJ
		generated += n.Stats.Generated
		neverSent += n.Stats.NeverSent
		brownouts += n.Stats.Brownouts
		staleWu += n.Stats.StaleWuDecisions
	}
	dropped := 0.0
	if generated > 0 {
		dropped = 100 * float64(neverSent) / float64(generated)
	}
	out := summary{
		Protocol:         res.Label,
		Nodes:            len(res.Nodes),
		SimulatedDays:    res.Elapsed.Days() * *aging,
		PRRMean:          prr.Mean(),
		PRRMin:           prr.Min(),
		AvgAttempts:      att.Mean(),
		AvgUtility:       util.Mean(),
		AvgLatencySec:    lat.Mean(),
		TotalTxEnergyJ:   txE,
		DegradationMean:  deg.Mean(),
		DegradationVar:   deg.Variance(),
		DegradationMax:   deg.Max(),
		DroppedByMACPct:  dropped,
		Brownouts:        brownouts,
		StaleWuDecisions: staleWu,
		LifespanDays:     res.LifespanDays * *aging,
		WallClockSeconds: time.Since(started).Seconds(),
	}

	if *nodeCSV != "" {
		if err := writeNodeCSV(*nodeCSV, res); err != nil {
			return err
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("protocol          %s\n", out.Protocol)
	fmt.Printf("nodes             %d\n", out.Nodes)
	fmt.Printf("simulated         %.1f days\n", out.SimulatedDays)
	fmt.Printf("PRR               %.3f (min node %.3f)\n", out.PRRMean, out.PRRMin)
	fmt.Printf("avg TX attempts   %.2f per packet\n", out.AvgAttempts)
	fmt.Printf("avg utility       %.3f\n", out.AvgUtility)
	fmt.Printf("avg latency       %.1f s (delivered)\n", out.AvgLatencySec)
	fmt.Printf("total TX energy   %.0f J\n", out.TotalTxEnergyJ)
	fmt.Printf("degradation       mean %.5f  var %.3g  max %.5f\n",
		out.DegradationMean, out.DegradationVar, out.DegradationMax)
	fmt.Printf("dropped by MAC    %.1f%%\n", out.DroppedByMACPct)
	if out.Brownouts > 0 || out.StaleWuDecisions > 0 {
		fmt.Printf("faults            %d brownouts, %d stale-w_u decisions\n",
			out.Brownouts, out.StaleWuDecisions)
	}
	if out.LifespanDays > 0 {
		fmt.Printf("battery lifespan  %.0f days (%.2f years)\n", out.LifespanDays, out.LifespanDays/365)
	}
	fmt.Printf("wall clock        %.1f s\n", out.WallClockSeconds)
	return nil
}

// writeNodeCSV dumps one row per node for offline analysis.
func writeNodeCSV(path string, res *sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f,
		"node,distance_m,sf,period_s,capacity_j,generated,delivered,attempts,prr,utility,latency_s,tx_energy_j,degradation,calendar,cycle,final_soc"); err != nil {
		return err
	}
	for _, n := range res.Nodes {
		if _, err := fmt.Fprintf(f, "%d,%.0f,%d,%.0f,%.3f,%d,%d,%d,%.4f,%.4f,%.2f,%.3f,%.6g,%.6g,%.6g,%.4f\n",
			n.ID, n.DistanceM, int(n.SF), n.Period.Seconds(), n.CapacityJ,
			n.Stats.Generated, n.Stats.Delivered, n.Stats.Attempts,
			n.Stats.PRR(), n.Stats.AvgUtility(), n.Stats.AvgLatencyDelivered().Seconds(),
			n.Stats.TxEnergyJ, n.Degradation.Total, n.Degradation.Calendar,
			n.Degradation.Cycle, n.FinalSoC); err != nil {
			return err
		}
	}
	return f.Close()
}
