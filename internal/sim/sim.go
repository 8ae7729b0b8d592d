package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/battery"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/lora"
	"repro/internal/mac"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/netserver"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// Protocol timing constants (LoRaWAN class A).
const (
	// rx1Delay separates uplink end from the first receive window.
	rx1Delay = simtime.Second
	// rxWindowsSpan is how long a node listens after an uplink before
	// concluding no ACK will come (RX1 at +1 s, RX2 at +2 s plus window).
	rxWindowsSpan = 3 * simtime.Second
	// rxWindowSymbols approximates the open receive windows' listening
	// time in preamble symbols when no downlink arrives.
	rxWindowSymbols = 24
	// maxReportsPerPacket bounds the SoC transition reports piggy-backed
	// on one uplink.
	maxReportsPerPacket = 8
	// joinPayloadBytes is the LoRaWAN join-request size charged for the
	// rejoin exchange after a brownout.
	joinPayloadBytes = 23
)

// Hooks let experiments observe protocol internals without touching the
// metric pipeline. All hooks are optional.
type Hooks struct {
	// OnDecision fires for every generated packet after the MAC decided.
	OnDecision func(nodeID int, genAt simtime.Time, windows int, window int, drop bool)
	// OnPacketDone fires when a packet's fate is settled.
	OnPacketDone func(nodeID int, delivered bool, attempts int, window int)
	// OnMonth fires every 30 simulated days with the node set, letting
	// experiments sample degradation trajectories (Fig. 2/7).
	OnMonth func(now simtime.Time, nodes []*Node)
	// Obs receives counters, per-node timelines, and fault events. Nil
	// disables observability at zero hot-path cost.
	Obs *obs.Recorder
}

// NodeResult is one node's final accounting.
type NodeResult struct {
	ID          int
	DistanceM   float64
	SF          lora.SpreadingFactor
	Period      simtime.Duration
	CapacityJ   float64
	Stats       *metrics.NodeStats
	Degradation battery.Breakdown
	FinalSoC    float64
}

// Result is the outcome of one simulation run.
type Result struct {
	Label   string
	Elapsed simtime.Duration
	Nodes   []NodeResult
	// MonthlyMaxDeg records the network's maximum ground-truth capacity
	// fade at the end of every 30-day month (Fig. 7).
	MonthlyMaxDeg []float64
	// LifespanDays is the network battery lifespan: days until the first
	// battery reached EoL (0 when the run ended before that).
	LifespanDays float64
}

// Simulation wires a scenario together and runs it.
type Simulation struct {
	cfg    config.Scenario
	hooks  Hooks
	eng    *Engine
	med    *Medium
	server *netserver.Server
	nodes  []*Node
	gwPos  []radio.Position
	phy    *lora.Table  // memoized airtime/TX-energy per (SF, payload)
	plan   *faults.Plan // nil unless the scenario injects faults

	freeEv  *simEvent // pooled events (events.go)
	freePkt *packet   // pooled in-flight packets

	monthly      []float64
	lifespanDays float64

	// Observability; obs is nil (and the counters no-ops) unless
	// Hooks.Obs was set.
	obs              *obs.Recorder
	cBrownouts       *obs.Counter
	cLostOutage      *obs.Counter
	cDroppedBackhaul *obs.Counter
	cDuplicated      *obs.Counter
	cDownlinkDropped *obs.Counter
}

// New builds a simulation from a validated scenario.
func New(cfg config.Scenario, hooks Hooks) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trace, err := energy.NewYearTrace(cfg.Solar)
	if err != nil {
		return nil, err
	}
	server, err := netserver.New(cfg.BatteryModel, cfg.BatteryTempC, cfg.DegradationInterval)
	if err != nil {
		return nil, err
	}
	phy, err := newPHYTable(cfg)
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:    cfg,
		hooks:  hooks,
		eng:    NewEngine(),
		med:    NewMedium(lora.BW125, cfg.Demodulators, cfg.Gateways),
		server: server,
		gwPos:  radio.GatewayLayout(cfg.Gateways, cfg.MaxDistanceM),
		phy:    phy,
		obs:    hooks.Obs,
	}
	s.obs.SetupNodes(cfg.Nodes)
	s.med.SetObserver(s.obs)
	s.server.SetObserver(s.obs)
	if s.obs.Enabled() {
		s.cBrownouts = s.obs.Counter("sim.brownouts")
		s.cLostOutage = s.obs.Counter("sim.uplinks_lost_outage")
		s.cDroppedBackhaul = s.obs.Counter("sim.uplinks_dropped_backhaul")
		s.cDuplicated = s.obs.Counter("sim.uplinks_duplicated")
		s.cDownlinkDropped = s.obs.Counter("sim.downlinks_dropped")
	}
	if cfg.Faults.Active() {
		if s.plan, err = faults.NewPlan(cfg.Faults, cfg.Seed, cfg.Nodes); err != nil {
			return nil, err
		}
	}
	// Construction slabs: the per-node EWMA profiles (~13 KB each) and
	// the solar sources' rolling day caches (~11.5 KB each) all live
	// exactly as long as the simulation, so they are carved out of two
	// contiguous banks instead of thousands of individual allocations —
	// same bytes, far less allocator and GC traffic at construction.
	var ewmaBank []energy.DiurnalEWMA
	if cfg.Forecast != config.ForecastPerfect && cfg.Forecast != config.ForecastNoisy {
		ewmaBank = energy.NewDiurnalEWMABank(0.3, cfg.Nodes)
	}
	minuteSlab := make([]float64, cfg.Nodes*minutesPerDay)
	for id := 0; id < cfg.Nodes; id++ {
		var ew *energy.DiurnalEWMA
		if ewmaBank != nil {
			ew = &ewmaBank[id]
		}
		lo, hi := id*minutesPerDay, (id+1)*minutesPerDay
		n, err := s.buildNode(id, trace, ew, minuteSlab[lo:hi:hi])
		if err != nil {
			return nil, fmt.Errorf("sim: node %d: %w", id, err)
		}
		s.nodes = append(s.nodes, n)
		server.Register(id, cfg.InitialSoC)
	}
	return s, nil
}

// newPHYTable builds the airtime/TX-energy lookup table for a scenario.
// All nodes share bandwidth, coding rate, preamble and TX power; only SF
// and payload vary per attempt, so one table covers every airtime/energy
// query of a run. attemptSpan's 64-byte worst case bounds the payload
// range alongside data + piggy-backed reports.
func newPHYTable(cfg config.Scenario) (*lora.Table, error) {
	base := lora.DefaultParams()
	base.TxPowerDBm = cfg.TxPowerDBm
	return lora.NewTable(base, max(cfg.PayloadBytes+battery.ReportSize*maxReportsPerPacket,
		cfg.AckPayloadBytes, 64))
}

// buildNode places one node and assigns its spreading factor, then
// hands the rest of the construction to newNode. ewma (may be nil) and
// minuteBuf are this node's views into the construction slabs New
// carved out.
func (s *Simulation) buildNode(id int, trace *energy.YearTrace, ewma *energy.DiurnalEWMA, minuteBuf []float64) (*Node, error) {
	cfg := s.cfg
	rng := rand.New(rand.NewPCG(cfg.Seed, uint64(id)+0x4ead))

	// Placement: uniform over the disk, resampled until the link budget
	// closes to at least one gateway (the paper assumes every node is
	// reachable).
	var pos radio.Position
	var sf lora.SpreadingFactor
	var rxPerGW []float64
	for try := 0; ; try++ {
		r := cfg.MaxDistanceM * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		pos = radio.Position{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
		rxPerGW = s.rxPowers(pos, id)
		if cfg.FixedSF != 0 {
			sf = cfg.FixedSF
			break
		}
		var ok bool
		if sf, ok = radio.AssignSF(mathx.MaxOf(rxPerGW), cfg.SFMarginDB, lora.BW125); ok {
			break
		}
		if try >= 100 {
			// Pathological shadowing draw: pin the node near the gateway.
			pos = radio.Position{X: 100}
			rxPerGW = s.rxPowers(pos, id)
			sf, _ = radio.AssignSF(mathx.MaxOf(rxPerGW), cfg.SFMarginDB, lora.BW125)
			break
		}
	}

	params := lora.DefaultParams()
	params.SF = sf
	params.TxPowerDBm = cfg.TxPowerDBm
	n, err := newNode(cfg, id, trace, rng, params, rxPerGW, s.obs.Node(id), ewma, minuteBuf)
	if err != nil {
		return nil, err
	}
	n.Pos = pos
	n.DistanceM = pos.DistanceTo(radio.Position{})
	return n, nil
}

// Nodes exposes the node set for experiment probes.
func (s *Simulation) Nodes() []*Node { return s.nodes }

// Run executes the scenario and returns the result.
func (s *Simulation) Run() (*Result, error) {
	cfg := s.cfg
	horizon := cfg.Duration
	if cfg.RunToEoL {
		horizon = cfg.MaxDuration
	}

	for _, n := range s.nodes {
		spread := cfg.StartSpread
		if spread == 0 {
			spread = n.Period
		}
		first := simtime.Time(n.rng.Int64N(int64(spread)))
		s.schedule(first, evGenerate, n, nil, nil, 0, 0)
		if at, ok := s.plan.NextBrownout(n.ID, 0); ok {
			s.schedule(at, evBrownout, n, nil, nil, 0, 0)
		}
	}
	s.schedule(0, evRecompute, nil, nil, nil, 0, 0)
	s.schedule(simtime.Time(30*simtime.Day), evMonthly, nil, nil, nil, 0, 0)
	if s.obs.Enabled() {
		s.schedule(0, evObsSample, nil, nil, nil, 0, 0)
	}

	// The clock ends at the horizon, or at the EoL stop's instant.
	s.eng.Run(simtime.Time(horizon))
	now := s.eng.Now()
	res := &Result{
		Label:         cfg.ProtocolLabel(),
		Elapsed:       simtime.Duration(now),
		MonthlyMaxDeg: s.monthly,
		LifespanDays:  s.lifespanDays,
	}
	for _, n := range s.nodes {
		n.Integrate(now)
		if bla, ok := n.Proto.(*mac.BLA); ok {
			n.Stats.StaleWuDecisions = bla.StaleDecisions()
		}
		res.Nodes = append(res.Nodes, NodeResult{
			ID:          n.ID,
			DistanceM:   n.DistanceM,
			SF:          n.Params.SF,
			Period:      n.Period,
			CapacityJ:   n.CapacityJ,
			Stats:       n.Stats,
			Degradation: n.Batt.Damage(now),
			FinalSoC:    n.Batt.SoC(),
		})
	}
	if s.obs.Enabled() {
		s.obs.Counter("engine.events_scheduled").Store(int64(s.eng.Scheduled()))
		s.obs.Counter("engine.events_executed").Store(int64(s.eng.Executed()))
	}
	return res, nil
}

// obsSample records every node's timeline row at the current instant and
// reschedules itself. Sampling is read-only — Damage and SoC are pure
// accessors and no energy integration runs — so enabling observability
// cannot perturb the simulation: RNG streams, event order, and all
// results stay byte-identical to an unobserved run.
//
// Scheduling rule (DESIGN.md §5e): one sampling event, seeded at t=0
// and rescheduled here, so the sample cadence is k·SampleEvery. The
// per-interval wakeups do not defeat the nodes' lazy integration: they
// wake no node — no integration, no per-node events.
func (s *Simulation) obsSample() {
	now := s.eng.Now()
	for _, n := range s.nodes {
		n.RecordTimeline(now)
	}
	s.schedule(now.Add(s.obs.SampleEvery()), evObsSample, nil, nil, nil, 0, 0)
}

// recomputeTick runs the gateway's degradation recomputation and the EoL
// stop condition once per DegradationInterval, so each tick lands on a
// fresh slot of the recompute grid.
func (s *Simulation) recomputeTick() {
	now := s.eng.Now()
	// An offline gateway misses its recompute slot; the next tick after
	// the outage ends evaluates its own slot.
	if !s.plan.GatewayDown(now) {
		s.server.Recompute(now)
	}
	if s.cfg.RunToEoL && s.maxGroundTruthDeg(now) >= s.cfg.BatteryModel.EoLThreshold {
		s.lifespanDays = now.Days()
		s.eng.Stop()
		return
	}
	s.schedule(now.Add(s.cfg.DegradationInterval), evRecompute, nil, nil, nil, 0, 0)
}

func (s *Simulation) monthlyTick() {
	now := s.eng.Now()
	s.monthly = append(s.monthly, s.maxGroundTruthDeg(now))
	if s.hooks.OnMonth != nil {
		s.hooks.OnMonth(now, s.nodes)
	}
	s.schedule(now.Add(30*simtime.Day), evMonthly, nil, nil, nil, 0, 0)
}

func (s *Simulation) maxGroundTruthDeg(now simtime.Time) float64 {
	var maxDeg float64
	for _, n := range s.nodes {
		maxDeg = math.Max(maxDeg, n.Batt.Degradation(now))
	}
	return maxDeg
}

// generate handles one packet generation at a node: abort any stale
// in-flight packet, run the MAC decision, and schedule the transmission
// attempt and the next generation.
func (s *Simulation) generate(n *Node) {
	now := s.eng.Now()
	n.Integrate(now)

	if n.pkt != nil && !n.pkt.finished {
		s.finish(n, n.pkt, false, now)
	}

	dec, window := n.Decide(now)
	if s.hooks.OnDecision != nil {
		s.hooks.OnDecision(n.ID, now, n.Windows, dec.Window, dec.Drop)
	}

	if dec.Drop {
		if s.hooks.OnPacketDone != nil {
			s.hooks.OnPacketDone(n.ID, false, 0, -1)
		}
	} else {
		pkt := s.newPacket()
		pkt.genAt = now
		pkt.deadline = now.Add(n.Period)
		pkt.window = window
		n.pkt = pkt

		var offset simtime.Duration
		if dec.SpreadInWindow {
			if spread := s.cfg.ForecastWindow - attemptSpan(n); spread > 0 {
				offset = simtime.Duration(n.rng.Int64N(int64(spread)))
			}
		}
		at := now.Add(simtime.Duration(window)*s.cfg.ForecastWindow + offset)
		s.schedule(at, evAttempt, n, pkt, nil, 0, 0)
	}

	s.schedule(now.Add(n.Period), evGenerate, n, nil, nil, 0, 0)
}

// attemptSpan is the worst-case duration of one attempt: airtime plus
// receive windows plus retransmission backoff headroom. It is constant
// per node and precomputed at build time.
func attemptSpan(n *Node) simtime.Duration { return n.span }

// attempt transmits (or re-transmits) the packet if the battery can fund
// it, deferring window by window otherwise. gen is the packet life the
// triggering event was scheduled for; a mismatch means the packet was
// recycled since.
func (s *Simulation) attempt(n *Node, pkt *packet, gen uint64) {
	if pkt.gen != gen || pkt.finished || n.pkt != pkt {
		return
	}
	now := s.eng.Now()
	n.Integrate(now)

	payload := s.cfg.PayloadBytes + battery.ReportSize*len(n.Reports())
	params := n.ParamsForAttempt(pkt.attempts)
	txE := s.phy.TxEnergy(params.SF, payload)

	if !n.Batt.CanSupply(txE + n.RxEnergyJ) {
		// Not enough stored energy: wait one forecast window for harvest,
		// or give up at the period boundary.
		retry := now.Add(s.cfg.ForecastWindow)
		if retry.Add(attemptSpan(n)).After(pkt.deadline) {
			s.finish(n, pkt, false, now)
			return
		}
		s.schedule(retry, evAttempt, n, pkt, nil, 0, 0)
		return
	}

	pkt.attempts++
	n.Stats.Attempts++
	n.Draw(txE)
	pkt.radioEnergyJ += txE
	n.Stats.TxEnergyJ += txE

	tx := s.med.NewTransmission()
	tx.NodeID = n.ID
	tx.Channel = n.ID % s.cfg.Channels
	tx.SF = params.SF
	tx.PowerDBm = n.RxPowerDBm
	tx.Start = now
	tx.End = now.Add(s.phy.Airtime(params.SF, payload))
	s.med.BeginUplink(tx)
	s.schedule(tx.End, evTxEnd, n, pkt, tx, 0, 0)
}

// txEnd resolves one transmission attempt: gateway decoding, ACK
// scheduling, or retransmission. The medium is released first in
// every path (it only touches radio state, which commutes with the
// node-side accounting below), so stale and live packets share it.
func (s *Simulation) txEnd(n *Node, pkt *packet, gen uint64, tx *Transmission) {
	gws := s.med.EndUplink(tx)
	if pkt.gen != gen || pkt.finished || n.pkt != pkt {
		return
	}
	now := s.eng.Now()
	n.Integrate(now)

	// Receive windows cost energy whether or not an ACK arrives.
	n.Draw(n.RxEnergyJ)
	pkt.radioEnergyJ += n.RxEnergyJ

	if len(gws) > 0 {
		// The switch mirrors the original short-circuit chain exactly:
		// GatewayDown draws no randomness and DropUplink is only consulted
		// when the gateway is up, so per-node RNG streams are identical
		// with observability on or off.
		switch {
		case s.plan.GatewayDown(now):
			s.cLostOutage.Inc()
			n.obsTL.RecordEvent(now, "uplink_lost_outage")
		case s.plan.DropUplink(n.ID):
			s.cDroppedBackhaul.Inc()
			n.obsTL.RecordEvent(now, "uplink_dropped_backhaul")
		default:
			reports := n.EncodeReports(now, s.cfg.ForecastWindow)
			s.server.Ingest(n.ID, reports, now, s.cfg.ForecastWindow)
			if s.plan.DuplicateUplink(n.ID) {
				// Backhaul duplication: the server sees the same packet twice;
				// idempotent ingestion makes the second delivery a no-op.
				s.cDuplicated.Inc()
				s.server.Ingest(n.ID, reports, now, s.cfg.ForecastWindow)
			}
			if !s.plan.DropDownlink(n.ID) {
				rx1 := now.Add(rx1Delay)
				ackEnd := rx1.Add(n.AckAirtime)
				for _, gw := range gws {
					if s.med.ReserveDownlink(gw, rx1, ackEnd) {
						s.schedule(rx1, evDownlink, nil, nil, nil, gw, ackEnd)
						s.schedule(ackEnd, evAckDone, n, pkt, nil, 0, 0)
						return
					}
				}
				// Every decoding gateway's radio is busy: the data arrived but
				// the node will never know — it behaves exactly like a
				// collision.
			} else {
				// A dropped downlink looks the same from the node: no ACK, so
				// it retries with the reports still piggy-backed (and the
				// server's duplicate guard drops the re-ingested copies).
				s.cDownlinkDropped.Inc()
				n.obsTL.RecordEvent(now, "downlink_dropped")
			}
		}
	}
	s.retryOrFail(n, pkt, now)
}

// brownout restarts a node: any in-flight packet dies, the node reboots
// (Node.Reboot), and it re-registers with the gateway, which keeps its
// accumulated degradation history.
func (s *Simulation) brownout(n *Node) {
	now := s.eng.Now()
	n.Integrate(now)

	if n.pkt != nil && !n.pkt.finished {
		s.finish(n, n.pkt, false, now)
	}
	n.Reboot(now)
	s.cBrownouts.Inc()
	s.server.Rejoin(n.ID, n.Batt.SoC())

	// The sampling timer restarts with the generation cycle already
	// scheduled; modelling a reboot-time phase shift would desynchronize
	// the pooled generate events for marginal realism.
	if at, ok := s.plan.NextBrownout(n.ID, now); ok {
		s.schedule(at, evBrownout, n, nil, nil, 0, 0)
	}
}

func (s *Simulation) retryOrFail(n *Node, pkt *packet, now simtime.Time) {
	if pkt.attempts >= s.cfg.MaxAttempts {
		s.finish(n, pkt, false, now)
		return
	}
	backoff := 500*simtime.Millisecond + simtime.Duration(n.rng.Int64N(int64(2*simtime.Second)))
	retry := now.Add(rxWindowsSpan + backoff)
	if retry.After(pkt.deadline) {
		s.finish(n, pkt, false, now)
		return
	}
	s.schedule(retry, evAttempt, n, pkt, nil, 0, 0)
}

// ackDelivered completes a packet successfully: the ACK carries the
// gateway's latest normalized degradation for this node.
func (s *Simulation) ackDelivered(n *Node, pkt *packet, gen uint64) {
	if pkt.gen != gen || pkt.finished || n.pkt != pkt {
		return
	}
	now := s.eng.Now()
	n.Integrate(now)
	n.Proto.OnDegradationUpdate(now, s.server.NormalizedDegradation(n.ID))
	n.ReportsDelivered()
	s.finish(n, pkt, true, now)
}

// finish settles a packet's fate (Node.Settle) and recycles it.
func (s *Simulation) finish(n *Node, pkt *packet, delivered bool, now simtime.Time) {
	pkt.finished = true
	n.pkt = nil
	n.Settle(mac.Outcome{
		Window:    pkt.window,
		Attempts:  pkt.attempts,
		EnergyJ:   pkt.radioEnergyJ,
		Delivered: delivered,
	}, now.Sub(pkt.genAt))
	if s.hooks.OnPacketDone != nil {
		s.hooks.OnPacketDone(n.ID, delivered, pkt.attempts, pkt.window)
	}
	s.releasePacket(pkt)
}

// rxPowers computes the node's static received power at every gateway.
func (s *Simulation) rxPowers(pos radio.Position, id int) []float64 {
	out := make([]float64, len(s.gwPos))
	for g, gp := range s.gwPos {
		out[g] = s.cfg.PathLoss.RxPowerBetweenDBm(s.cfg.TxPowerDBm, pos, gp, uint64(id)*131+uint64(g))
	}
	return out
}
