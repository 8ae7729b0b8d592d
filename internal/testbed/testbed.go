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
	"repro/internal/utility"
)

// Class A timing, matching the simulator.
const (
	rx1Delay      = simtime.Second
	rxWindowsSpan = 3 * simtime.Second
	// joinPayloadBytes is the LoRaWAN join-request size charged for the
	// rejoin exchange after a brownout, matching the simulator.
	joinPayloadBytes = 23
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

// node is one emulated device, driven by its own goroutine.
type node struct {
	id      int
	params  lora.Params
	period  simtime.Duration
	windows int
	proto   mac.Protocol
	batt    battery.Store
	src     energy.Source
	fc      energy.Forecaster
	rng     *rand.Rand
	stats   *metrics.NodeStats

	phy  *lora.Table  // shared immutable airtime/energy table, goroutine-safe
	plan *faults.Plan // shared; only this node's streams are consulted

	sleepW       float64
	rxEnergyJ    float64
	ackAirtime   simtime.Duration
	attemptSpan  simtime.Duration // worst-case deadline check span, precomputed
	rxPowerDBm   []float64        // static received power at the gateway
	lastIntegral simtime.Time
	extraDrawJ   float64 // radio energy awaiting the next balance chunk
	pendingTrans []battery.Transition
	wireBuf      []battery.Report // reused report-encoding buffer
	obsTL        *obs.NodeTimeline
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
	gw := NewGateway(med, server)
	clock := NewClock()
	end := simtime.Time(cfg.Duration)

	// One memoized airtime/energy table serves every node: all share
	// bandwidth, coding rate and TX power, and the table is immutable
	// after construction, so concurrent goroutine reads are safe.
	base := lora.DefaultParams()
	base.TxPowerDBm = cfg.TxPowerDBm
	maxPayload := max(cfg.PayloadBytes+8*battery.ReportSize, cfg.AckPayloadBytes, 64)
	phy, err := lora.NewTable(base, maxPayload)
	if err != nil {
		return nil, err
	}

	var plan *faults.Plan
	if cfg.Faults.Active() {
		if plan, err = faults.NewPlan(cfg.Faults, cfg.Seed, cfg.Nodes); err != nil {
			return nil, err
		}
		gw.SetFaultPlan(plan)
	}

	nodes := make([]*node, cfg.Nodes)
	for id := range nodes {
		n, err := buildNode(cfg, id, trace, rec.Node(id))
		if err != nil {
			return nil, fmt.Errorf("testbed: node %d: %w", id, err)
		}
		n.phy = phy
		n.plan = plan
		nodes[id] = n
		server.Register(id, cfg.InitialSoC)
	}

	var wg sync.WaitGroup
	// Gateway maintenance goroutine: daily degradation recomputation.
	clock.AddWorker()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer clock.Done()
		for {
			now := clock.Now()
			if now >= end {
				return
			}
			gw.Recompute(now)
			clock.Sleep(cfg.DegradationInterval)
		}
	}()

	for _, n := range nodes {
		n := n
		clock.AddWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer clock.Done()
			n.run(cfg, clock, gw, end)
		}()
	}
	wg.Wait()

	res := &Result{Label: cfg.ProtocolLabel(), Elapsed: simtime.Duration(clock.Now())}
	for _, n := range nodes {
		n.integrate(end)
		if bla, ok := n.proto.(*mac.BLA); ok {
			n.stats.StaleWuDecisions = bla.StaleDecisions()
		}
		res.Nodes = append(res.Nodes, NodeResult{
			ID:          n.id,
			SF:          n.params.SF,
			Period:      n.period,
			Stats:       n.stats,
			Degradation: n.batt.Damage(end),
			FinalSoC:    n.batt.SoC(),
		})
	}
	return res, nil
}

// buildNode mirrors the simulator's construction for the testbed
// setting: fixed SF (the paper uses SF10 on one channel), emulated
// battery, local solar source.
func buildNode(cfg config.Scenario, id int, trace *energy.YearTrace, tl *obs.NodeTimeline) (*node, error) {
	rng := rand.New(rand.NewPCG(cfg.Seed, uint64(id)+0x7e57))

	params := lora.DefaultParams()
	params.TxPowerDBm = cfg.TxPowerDBm
	if cfg.FixedSF != 0 {
		params.SF = cfg.FixedSF
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	span := int64(cfg.PeriodMax-cfg.PeriodMin) + 1
	period := cfg.PeriodMin + simtime.Duration(rng.Int64N(span))
	windows := int(period / cfg.ForecastWindow)
	period = simtime.Duration(windows) * cfg.ForecastWindow

	refPayload := cfg.PayloadBytes + 2*battery.ReportSize
	txE := params.TxEnergy(refPayload)
	rxE := lora.RxPower() * 24 * params.SymbolTime()

	capacity := cfg.BatteryCapacityJ
	if capacity == 0 {
		perDay := simtime.Day.Seconds() / period.Seconds()
		capacity = cfg.SleepPowerW*simtime.Day.Seconds() + perDay*cfg.BatterySizingAttempts*(txE+rxE)
	}
	var store battery.Store
	batt, err := battery.New(cfg.BatteryModel, capacity, cfg.InitialSoC, cfg.BatteryTempC)
	if err != nil {
		return nil, err
	}
	store = batt
	if cfg.SupercapJ > 0 {
		if store, err = battery.NewHybrid(batt, cfg.SupercapJ, cfg.SupercapLeakW); err != nil {
			return nil, err
		}
	}

	// Panel sizing: peak generation funds PanelPeakMultiple transmissions
	// per forecast window (Sec. II-C), floored so that a day of sun also
	// covers the always-on sleep draw — low-SF nodes transmit so cheaply
	// that the paper's TX-based rule alone would starve them.
	peakW := max(energy.PeakPowerFor(txE, cfg.ForecastWindow, cfg.PanelPeakMultiple), 10*cfg.SleepPowerW)
	src := trace.NodeSource(id, peakW, cfg.SolarVariation)
	var fc energy.Forecaster
	switch cfg.Forecast {
	case config.ForecastPerfect:
		fc = &energy.Perfect{Source: src}
	case config.ForecastNoisy:
		fc = energy.NewNoisy(src, cfg.ForecastNoise, cfg.Seed^uint64(id)*0x51ab)
	default:
		ewma := energy.NewDiurnalEWMA(0.3)
		ewma.Prime(src, cfg.ForecastPrimeDays)
		fc = ewma
	}

	var proto mac.Protocol
	switch cfg.Protocol {
	case config.ProtocolLoRaWAN:
		proto = mac.ALOHA{}
	case config.ProtocolThetaOnly:
		if proto, err = mac.NewThetaOnly(cfg.Theta); err != nil {
			return nil, err
		}
	default:
		if proto, err = mac.NewBLA(mac.BLAConfig{
			Theta:              cfg.Theta,
			WeightB:            cfg.WeightB,
			Beta:               cfg.Beta,
			Utility:            cfg.Utility,
			Forecaster:         fc,
			Window:             cfg.ForecastWindow,
			MaxWindows:         int(cfg.PeriodMax / cfg.ForecastWindow),
			SingleTxEnergyJ:    txE,
			MaxAttempts:        cfg.MaxAttempts,
			DisableRetxHistory: cfg.DisableRetxHistory,
			WuTTL:              cfg.Faults.WuTTL,
			WuStaleFallback:    cfg.Faults.WuStaleFallback,
			Obs:                tl,
		}); err != nil {
			return nil, err
		}
	}
	store.SetChargeLimit(proto.Theta())

	return &node{
		id:          id,
		params:      params,
		period:      period,
		windows:     windows,
		proto:       proto,
		batt:        store,
		src:         src,
		fc:          fc,
		rng:         rng,
		stats:       metrics.NewNodeStats(),
		sleepW:      cfg.SleepPowerW,
		rxEnergyJ:   rxE,
		ackAirtime:  params.Airtime(cfg.AckPayloadBytes),
		attemptSpan: params.Airtime(cfg.PayloadBytes) + rxWindowsSpan,
		// The link is static (fixed placement, deterministic shadowing
		// draw), so the received power is computed once per node.
		rxPowerDBm: []float64{cfg.PathLoss.RxPowerDBm(cfg.TxPowerDBm, radioPos(id), uint64(id))},
		obsTL:      tl,
	}, nil
}

// run is the node goroutine's main loop: exactly the duty cycle a
// physical LMIC-based node executes.
func (n *node) run(cfg config.Scenario, clock *Clock, gw *Gateway, end simtime.Time) {
	spread := cfg.StartSpread
	if spread == 0 {
		spread = n.period
	}
	clock.Sleep(simtime.Duration(n.rng.Int64N(int64(spread))) + simtime.Millisecond)

	nextBO, boPending := n.plan.NextBrownout(n.id, 0)
	for {
		genAt := clock.Now()
		if genAt >= end {
			return
		}
		// Brownouts are applied at sampling-cycle granularity: a restart
		// mid-cycle would anyway first be observable at the next decision.
		if boPending && genAt >= nextBO {
			n.brownout(genAt, gw)
			nextBO, boPending = n.plan.NextBrownout(n.id, genAt)
		}
		n.integrate(genAt)
		n.stats.Generated++
		if n.obsTL != nil {
			bd := n.batt.Damage(genAt)
			n.obsTL.Record(genAt, n.batt.SoC(), bd.Calendar, bd.Cycle, bd.Total, len(n.pendingTrans))
		}

		dec := n.proto.DecideTx(genAt, n.windows, n.batt.Stored())
		n.obsTL.Decision(dec.Window, dec.Drop)
		nextGen := genAt.Add(n.period)
		if dec.Drop {
			n.stats.NeverSent++
			n.stats.Dropped++
			n.stats.LatencyPenalized += n.period
		} else {
			window := min(max(dec.Window, 0), n.windows-1)
			n.stats.WindowHist.Add(window)
			var offset simtime.Duration
			if dec.SpreadInWindow {
				if spread := cfg.ForecastWindow - 10*simtime.Second; spread > 0 {
					offset = simtime.Duration(n.rng.Int64N(int64(spread)))
				}
			}
			clock.SleepUntil(genAt.Add(simtime.Duration(window)*cfg.ForecastWindow + offset))
			n.transmitPacket(cfg, clock, gw, genAt, window, nextGen)
		}
		if clock.Now() < nextGen {
			clock.SleepUntil(nextGen)
		}
	}
}

// transmitPacket runs the attempt/ACK/retransmit cycle for one packet.
func (n *node) transmitPacket(cfg config.Scenario, clock *Clock, gw *Gateway,
	genAt simtime.Time, window int, deadline simtime.Time,
) {
	var attempts int
	var radioEnergy float64
	delivered := false

	for attempts < cfg.MaxAttempts {
		now := clock.Now()
		if now.Add(n.attemptSpan).After(deadline) {
			break
		}
		n.integrate(now)
		n.drainReports()
		reports := n.pendingTrans
		if len(reports) > 8 {
			reports = reports[len(reports)-8:]
		}
		payload := cfg.PayloadBytes + battery.ReportSize*len(reports)
		params := paramsForAttempt(n.params, attempts)
		txE := n.phy.TxEnergy(params.SF, payload)
		if !n.batt.CanSupply(txE + n.rxEnergyJ) {
			// Wait a window for harvest.
			clock.Sleep(cfg.ForecastWindow)
			continue
		}

		attempts++
		n.stats.Attempts++
		n.extraDrawJ += txE
		n.stats.TxEnergyJ += txE
		radioEnergy += txE + n.rxEnergyJ

		airtime := n.phy.Airtime(params.SF, payload)
		tx := gw.NewTransmission()
		tx.NodeID = n.id
		tx.Channel = n.id % cfg.Channels
		tx.SF = params.SF
		tx.PowerDBm = n.rxPowerDBm
		tx.Start = now
		tx.End = now.Add(airtime)
		gw.BeginUplink(tx)
		clock.Sleep(airtime)

		txEnd := clock.Now()
		n.integrate(txEnd)
		n.extraDrawJ += n.rxEnergyJ

		wire := n.wireBuf[:0]
		for _, tr := range reports {
			wire = append(wire, battery.EncodeTransition(tr, txEnd, cfg.ForecastWindow))
		}
		n.wireBuf = wire
		decoded, ackReserved, ackEnd := gw.EndUplink(tx, n.id, wire, txEnd,
			cfg.ForecastWindow, rx1Delay, n.ackAirtime)
		if decoded && ackReserved {
			clock.SleepUntil(txEnd.Add(rx1Delay))
			gw.StartAck(ackEnd)
			clock.SleepUntil(ackEnd)
			n.proto.OnDegradationUpdate(ackEnd, gw.AckPayload(n.id))
			n.pendingTrans = n.pendingTrans[:0]
			delivered = true
			break
		}
		// No ACK: listen through the receive windows, back off, retry.
		clock.Sleep(rxWindowsSpan + 500*simtime.Millisecond +
			simtime.Duration(n.rng.Int64N(int64(2*simtime.Second))))
	}

	now := clock.Now()
	if delivered {
		n.stats.Delivered++
		lat := now.Sub(genAt)
		n.stats.LatencyDelivered += lat
		n.stats.LatencyPenalized += lat
		n.stats.UtilitySum += utility.Linear{}.Value(window, n.windows)
	} else {
		n.stats.Dropped++
		n.stats.LatencyPenalized += n.period
	}
	if attempts > 0 {
		n.proto.OnOutcome(mac.Outcome{
			Window:    window,
			Attempts:  attempts,
			EnergyJ:   radioEnergy,
			Delivered: delivered,
		})
	}
	n.obsTL.PacketDone(delivered, attempts)
}

// brownout restarts the node, mirroring the simulator: volatile MAC
// state and the unreported transition backlog are lost, the rejoin
// exchange is charged to the battery, and the gateway keeps the
// accumulated degradation history.
func (n *node) brownout(now simtime.Time, gw *Gateway) {
	n.integrate(now)
	n.proto.Reset()
	n.pendingTrans = n.pendingTrans[:0]
	n.batt.DrainTransitions()
	n.stats.Brownouts++
	n.obsTL.RecordEvent(now, "brownout")
	joinE := n.phy.TxEnergy(n.params.SF, joinPayloadBytes) + n.rxEnergyJ
	n.extraDrawJ += joinE
	n.stats.TxEnergyJ += joinE
	gw.Rejoin(n.id, n.batt.SoC())
}

// integrate mirrors the simulator's lazy energy accounting.
func (n *node) integrate(to simtime.Time) {
	from := n.lastIntegral
	if to <= from {
		return
	}
	n.lastIntegral = to
	const minuteT = simtime.Time(simtime.Minute)
	cursor := from
	for cursor < to {
		next := (cursor/minuteT + 1) * minuteT
		var secs float64
		if next <= to && cursor == next-minuteT {
			// Whole-minute step: a full simulated minute is exactly 60 s.
			secs = 60.0
		} else {
			if next > to {
				next = to
			}
			secs = next.Sub(cursor).Seconds()
		}
		harvest := n.src.Energy(cursor, next)
		n.fc.Observe(cursor, next, harvest)
		net := harvest - secs*n.sleepW - n.extraDrawJ
		n.extraDrawJ = 0
		if net >= 0 {
			n.batt.Charge(next, net)
		} else {
			n.batt.Discharge(next, -net)
		}
		cursor = next
	}
}

func (n *node) drainReports() {
	trans := n.batt.DrainTransitions()
	if len(trans) == 0 {
		return
	}
	if len(trans) > 2 {
		loIdx, hiIdx := 0, 0
		for i, tr := range trans {
			if tr.SoC < trans[loIdx].SoC {
				loIdx = i
			}
			if tr.SoC > trans[hiIdx].SoC {
				hiIdx = i
			}
		}
		first, second := loIdx, hiIdx
		if first > second {
			first, second = second, first
		}
		if first == second {
			trans = trans[first : first+1]
		} else {
			trans = []battery.Transition{trans[first], trans[second]}
		}
	}
	n.pendingTrans = append(n.pendingTrans, trans...)
	if len(n.pendingTrans) > 16 {
		n.pendingTrans = append(n.pendingTrans[:0], n.pendingTrans[len(n.pendingTrans)-16:]...)
	}
}

// paramsForAttempt applies the LoRaWAN retransmission back-off: SF rises
// one step every two attempts, capped at SF12, matching the simulator.
func paramsForAttempt(p lora.Params, attemptIdx int) lora.Params {
	sf := p.SF + lora.SpreadingFactor(attemptIdx/2)
	if sf > lora.MaxSF {
		sf = lora.MaxSF
	}
	p.SF = sf
	return p
}

// radioPos places testbed nodes on a small indoor ring (the paper's lab
// deployment, Fig. 10): distances are tens of meters, so link budget is
// never the bottleneck.
func radioPos(id int) radio.Position {
	return radio.Position{X: 10 + float64(id)*3}
}
