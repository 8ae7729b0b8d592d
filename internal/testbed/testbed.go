package testbed

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/battery"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/lora"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/netserver"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Class A timing, matching the simulator.
const (
	rx1Delay      = simtime.Second
	rxWindowsSpan = 3 * simtime.Second
)

// NodeResult is one emulated node's outcome.
type NodeResult struct {
	ID          int
	SF          lora.SpreadingFactor
	Period      simtime.Duration
	Stats       *metrics.NodeStats
	Degradation battery.Breakdown
	FinalSoC    float64
}

// Result is the outcome of a testbed run.
type Result struct {
	Label   string
	Elapsed simtime.Duration
	Nodes   []NodeResult
}

// node is one emulated device: the simulator's node model, driven by its
// own goroutine instead of the event engine.
type node struct {
	*sim.Node
	rng  *rand.Rand       // the node's random stream, shared with its model
	span simtime.Duration // airtime plus receive windows: the deadline check of one attempt
}

// driver holds what every node goroutine shares.
type driver struct {
	cfg   config.Scenario
	clock *Clock
	gw    *Gateway
	phy   *lora.Table  // the simulator's airtime/energy table, goroutine-safe
	plan  *faults.Plan // shared; only each node's own streams are consulted
	end   simtime.Time
}

// Run executes the emulated testbed for the scenario. It reuses the
// scenario type of the simulator; the paper's setup is DefaultScenario.
// Unlike the simulator, node behaviour emerges from truly concurrent
// goroutines under the virtual clock, so run-to-run metric totals may
// vary slightly when nodes race for the same ACK slot — exactly as on
// the physical testbed.
func Run(cfg config.Scenario) (*Result, error) { return RunObserved(cfg, nil) }

// RunObserved is Run with an observability recorder attached. Node
// timelines are sampled once per sampling cycle at the decision instant.
// Unlike the simulator, testbed timelines are NOT byte-reproducible:
// goroutine interleaving under the virtual clock varies run to run, as
// it would on physical hardware.
func RunObserved(cfg config.Scenario, rec *obs.Recorder) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.RunToEoL {
		return nil, fmt.Errorf("testbed: run-to-EoL is a simulator experiment")
	}
	trace, err := energy.NewYearTrace(cfg.Solar)
	if err != nil {
		return nil, err
	}
	server, err := netserver.New(cfg.BatteryModel, cfg.BatteryTempC, cfg.DegradationInterval)
	if err != nil {
		return nil, err
	}
	rec.SetupNodes(cfg.Nodes)
	server.SetObserver(rec)
	med := sim.NewMedium(lora.BW125, cfg.Demodulators, 1)
	med.SetObserver(rec)
	d := &driver{cfg: cfg, clock: NewClock(), gw: NewGateway(med, server), end: simtime.Time(cfg.Duration)}
	if d.phy, err = sim.NewPHYTable(cfg); err != nil {
		return nil, err
	}

	if cfg.Faults.Active() {
		if d.plan, err = faults.NewPlan(cfg.Faults, cfg.Seed, cfg.Nodes); err != nil {
			return nil, err
		}
		d.gw.SetFaultPlan(d.plan)
	}

	nodes := make([]*node, cfg.Nodes)
	for id := range nodes {
		// Fixed SF (the paper uses SF10 on one channel) on a static link:
		// fixed placement and a deterministic shadowing draw, so the
		// received power is computed once per node.
		params := lora.DefaultParams()
		params.TxPowerDBm = cfg.TxPowerDBm
		if cfg.FixedSF != 0 {
			params.SF = cfg.FixedSF
		}
		rxPowerDBm := []float64{cfg.PathLoss.RxPowerDBm(cfg.TxPowerDBm, radioPos(id), uint64(id))}
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(id)+0x7e57))
		n, err := sim.NewNode(cfg, id, trace, rng, params, rxPowerDBm, rec.Node(id))
		if err != nil {
			return nil, fmt.Errorf("testbed: node %d: %w", id, err)
		}
		nodes[id] = &node{Node: n, rng: rng, span: n.Params.Airtime(cfg.PayloadBytes) + rxWindowsSpan}
		server.Register(id, cfg.InitialSoC)
	}

	// Every worker joins the clock before any goroutine starts: a
	// goroutine that runs while it is the clock's only worker would
	// sleep its way to the end of the run before the rest are counted.
	for range len(nodes) + 1 {
		d.clock.AddWorker()
	}
	var wg sync.WaitGroup
	wg.Add(len(nodes) + 1)
	// Gateway maintenance goroutine: periodic degradation recomputation.
	go func() {
		defer wg.Done()
		defer d.clock.Done()
		for now := d.clock.Now(); now < d.end; now = d.clock.Now() {
			d.gw.Recompute(now)
			d.clock.Sleep(cfg.DegradationInterval)
		}
	}()
	for _, n := range nodes {
		go func() {
			defer wg.Done()
			defer d.clock.Done()
			d.run(n)
		}()
	}
	wg.Wait()

	res := &Result{Label: cfg.ProtocolLabel(), Elapsed: simtime.Duration(d.clock.Now())}
	for _, n := range nodes {
		n.Integrate(d.end)
		if bla, ok := n.Proto.(*mac.BLA); ok {
			n.Stats.StaleWuDecisions = bla.StaleDecisions()
		}
		res.Nodes = append(res.Nodes, NodeResult{
			ID:          n.ID,
			SF:          n.Params.SF,
			Period:      n.Period,
			Stats:       n.Stats,
			Degradation: n.Batt.Damage(d.end),
			FinalSoC:    n.Batt.SoC(),
		})
	}
	return res, nil
}

// run is the node goroutine's main loop: exactly the duty cycle a
// physical LMIC-based node executes.
func (d *driver) run(n *node) {
	cfg, clock := d.cfg, d.clock
	spread := cfg.StartSpread
	if spread == 0 {
		spread = n.Period
	}
	clock.Sleep(simtime.Duration(n.rng.Int64N(int64(spread))) + simtime.Millisecond)

	nextBO, boPending := d.plan.NextBrownout(n.ID, 0)
	for {
		genAt := clock.Now()
		if genAt >= d.end {
			return
		}
		// Brownouts are applied at sampling-cycle granularity: a restart
		// mid-cycle would anyway first be observable at the next decision.
		if boPending && genAt >= nextBO {
			n.Reboot(genAt)
			d.gw.Rejoin(n.ID, n.Batt.SoC())
			nextBO, boPending = d.plan.NextBrownout(n.ID, genAt)
		}
		n.Integrate(genAt)
		n.RecordTimeline(genAt)

		dec, window := n.Decide(genAt)
		nextGen := genAt.Add(n.Period)
		if !dec.Drop {
			var offset simtime.Duration
			if dec.SpreadInWindow {
				if spread := cfg.ForecastWindow - 10*simtime.Second; spread > 0 {
					offset = simtime.Duration(n.rng.Int64N(int64(spread)))
				}
			}
			clock.SleepUntil(genAt.Add(simtime.Duration(window)*cfg.ForecastWindow + offset))
			d.transmitPacket(n, genAt, window, nextGen)
		}
		if clock.Now() < nextGen {
			clock.SleepUntil(nextGen)
		}
	}
}

// transmitPacket runs the attempt/ACK/retransmit cycle for one packet.
func (d *driver) transmitPacket(n *node, genAt simtime.Time, window int, deadline simtime.Time) {
	cfg, clock, gw := d.cfg, d.clock, d.gw
	var attempts int
	var radioEnergy float64
	delivered := false

	for attempts < cfg.MaxAttempts {
		now := clock.Now()
		if now.Add(n.span).After(deadline) {
			break
		}
		n.Integrate(now)
		payload := cfg.PayloadBytes + battery.ReportSize*len(n.Reports())
		sf := n.ParamsForAttempt(attempts).SF
		txE := d.phy.TxEnergy(sf, payload)
		if !n.Batt.CanSupply(txE + n.RxEnergyJ) {
			// Wait a window for harvest.
			clock.Sleep(cfg.ForecastWindow)
			continue
		}

		attempts++
		n.Stats.Attempts++
		n.Draw(txE)
		n.Stats.TxEnergyJ += txE
		radioEnergy += txE + n.RxEnergyJ

		airtime := d.phy.Airtime(sf, payload)
		tx := gw.NewTransmission()
		tx.NodeID = n.ID
		tx.Channel = n.ID % cfg.Channels
		tx.SF = sf
		tx.PowerDBm = n.RxPowerDBm
		tx.Start = now
		tx.End = now.Add(airtime)
		gw.BeginUplink(tx)
		clock.Sleep(airtime)

		txEnd := clock.Now()
		n.Integrate(txEnd)
		n.Draw(n.RxEnergyJ)

		decoded, ackReserved, ackEnd := gw.EndUplink(tx, n.ID, n.EncodeReports(txEnd, cfg.ForecastWindow),
			txEnd, cfg.ForecastWindow, rx1Delay, n.AckAirtime)
		if decoded && ackReserved {
			clock.SleepUntil(txEnd.Add(rx1Delay))
			gw.StartAck(ackEnd)
			clock.SleepUntil(ackEnd)
			n.Proto.OnDegradationUpdate(ackEnd, gw.AckPayload(n.ID))
			n.ReportsDelivered()
			delivered = true
			break
		}
		// No ACK: listen through the receive windows, back off, retry.
		clock.Sleep(rxWindowsSpan + 500*simtime.Millisecond +
			simtime.Duration(n.rng.Int64N(int64(2*simtime.Second))))
	}

	n.Settle(mac.Outcome{
		Window:    window,
		Attempts:  attempts,
		EnergyJ:   radioEnergy,
		Delivered: delivered,
	}, clock.Now().Sub(genAt))
}

// radioPos places testbed nodes on a small indoor ring (the paper's lab
// deployment, Fig. 10): distances are tens of meters, so link budget is
// never the bottleneck.
func radioPos(id int) radio.Position {
	return radio.Position{X: 10 + float64(id)*3}
}
