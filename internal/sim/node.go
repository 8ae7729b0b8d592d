package sim

import (
	"math/rand/v2"

	"repro/internal/battery"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/lora"
	"repro/internal/mac"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/utility"
)

// Node is one simulated end device. The simulator's event handlers
// drive it through its steps (Integrate, Reports, Draw, Settle, Reboot,
// ...): energy integration, report queue and back-off live here, the
// event schedule in sim.go.
type Node struct {
	ID        int
	Pos       radio.Position
	DistanceM float64
	Params    lora.Params
	Period    simtime.Duration
	Windows   int // forecast windows per sampling period
	CapacityJ float64

	Proto mac.Protocol
	Batt  battery.Store
	Stats *metrics.NodeStats

	RxPowerDBm []float64        // static received power at each gateway
	RxEnergyJ  float64          // receive-window cost per attempt
	AckAirtime simtime.Duration // downlink ACK duration at this SF

	src      energy.Source
	srcMin   energy.MinuteSource // non-nil when src answers per-minute queries O(1)
	powCache []float64           // srcMin.DayPowers(powDay); the integrators wake once per event, so the interface call is cached per day
	powDay   int64               // day powCache holds; only valid while powCache != nil
	fc       energy.Forecaster
	fcEWMA   *energy.DiurnalEWMA // non-nil when fc supports slot-direct observations
	rng      *rand.Rand
	sleepW   float64          // baseline power draw in watts
	span     simtime.Duration // worst-case attempt duration, precomputed
	obsTL    *obs.NodeTimeline

	// lastIntegrated is the lazy energy-integration cursor.
	lastIntegrated simtime.Time
	// extraDrawJ is radio energy awaiting the next balance chunk (the
	// Eq. 5 software-defined switch input).
	extraDrawJ float64
	// batt is Batt when it is a plain battery; nil (hybrid or test
	// stub) routes the node through the generic integrate path.
	batt *battery.Battery

	pkt          *packet
	pendingTrans []battery.Transition // SoC transitions awaiting report
	transPair    [2]battery.Transition
	transBuf     []battery.Transition // reused drain buffer
	reportBuf    []battery.Report     // reused wire-encoding buffer
}

// newNode builds a node that buildNode has placed and tuned: params
// carries its base spreading factor and TX power, rxPowerDBm its static
// received power at each gateway. It sizes battery and panel (Sec.
// II-C), wires the harvest source, forecaster and protocol, and draws
// the sampling period from rng, which the node keeps using for its
// timing jitter. tl may be nil. ewma (nil for the Perfect and Noisy
// forecasters, which do not use it) and minuteBuf are this node's views
// into the simulation's construction slabs.
func newNode(cfg config.Scenario, id int, trace *energy.YearTrace, rng *rand.Rand,
	params lora.Params, rxPowerDBm []float64, tl *obs.NodeTimeline,
	ewma *energy.DiurnalEWMA, minuteBuf []float64,
) (*Node, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}

	// Sampling period, snapped to whole forecast windows.
	span := int64(cfg.PeriodMax-cfg.PeriodMin) + 1
	period := cfg.PeriodMin + simtime.Duration(rng.Int64N(span))
	windows := int(period / cfg.ForecastWindow)
	period = simtime.Duration(windows) * cfg.ForecastWindow

	// Reference energies: one attempt carrying the base payload plus a
	// typical two-report piggyback.
	refPayload := cfg.PayloadBytes + 2*battery.ReportSize
	txE := params.TxEnergy(refPayload)
	rxE := lora.RxPower() * float64(rxWindowSymbols) * params.SymbolTime()

	// Battery sizing: 24 h of autonomous operation (Sec. II-C) unless
	// the scenario pins a capacity.
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
	// Attach before any priming so the source's lazy day cache lands in
	// the slab rather than allocating its own backing store.
	if ms, ok := src.(interface{ SetMinuteBuf([]float64) }); ok {
		ms.SetMinuteBuf(minuteBuf)
	}

	var fc energy.Forecaster
	switch cfg.Forecast {
	case config.ForecastPerfect:
		fc = &energy.Perfect{Source: src}
	case config.ForecastNoisy:
		fc = energy.NewNoisy(src, cfg.ForecastNoise, cfg.Seed^uint64(id)*0x9e37)
	default:
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

	// The solar substrate answers per-minute queries O(1) from its day
	// cache; the integrator uses that path directly when available, and
	// feeds whole-minute observations straight into the EWMA profile slot.
	srcMin, _ := src.(energy.MinuteSource)
	fcEWMA, _ := fc.(*energy.DiurnalEWMA)
	plain, _ := store.(*battery.Battery)

	return &Node{
		ID:         id,
		Params:     params,
		Period:     period,
		Windows:    windows,
		CapacityJ:  capacity,
		Proto:      proto,
		Batt:       store,
		Stats:      metrics.NewNodeStats(),
		RxPowerDBm: rxPowerDBm,
		RxEnergyJ:  rxE,
		AckAirtime: params.Airtime(cfg.AckPayloadBytes),
		src:        src,
		srcMin:     srcMin,
		fc:         fc,
		fcEWMA:     fcEWMA,
		rng:        rng,
		sleepW:     cfg.SleepPowerW,
		span:       params.Airtime(64) + rxWindowsSpan + 3*simtime.Second,
		obsTL:      tl,
		batt:       plain,
	}, nil
}

// Draw charges radio energy against the node's energy balance. Per the
// paper's software-defined switch (Eq. 5), consumption within a window
// is netted against that window's green generation; only the shortfall
// discharges the battery, so a transmission fully covered by harvest
// causes no SoC dip at all.
func (n *Node) Draw(joules float64) { n.extraDrawJ += joules }

// ParamsForAttempt applies the LoRaWAN retransmission back-off: the data
// rate drops (SF rises) every two attempts, up to SF12. Retransmissions
// therefore cost progressively more energy and airtime — the mechanism
// that makes collision-heavy pure ALOHA so expensive for the battery.
func (n *Node) ParamsForAttempt(attemptIdx int) lora.Params {
	p := n.Params
	sf := p.SF + lora.SpreadingFactor(attemptIdx/2)
	if sf > lora.MaxSF {
		sf = lora.MaxSF
	}
	p.SF = sf
	return p
}

// packet is the in-flight uplink of a node (at most one at a time).
// Packets are recycled through the simulation's free list; gen counts
// lives so events scheduled for an earlier life are ignored.
type packet struct {
	gen          uint64
	genAt        simtime.Time
	deadline     simtime.Time // next packet's generation
	window       int
	attempts     int
	radioEnergyJ float64 // total radio draw: transmissions + rx windows
	finished     bool
	next         *packet // free-list link
}

// minutesPerDay mirrors the energy package's day-cache granularity.
const minutesPerDay = 24 * 60

// Integrate lives in core.go.

// Decide counts a packet generated at now and asks the protocol when to
// send it. A dropped packet is settled on the spot; otherwise window is
// the chosen forecast window, clamped to the sampling period.
func (n *Node) Decide(now simtime.Time) (dec mac.Decision, window int) {
	n.Stats.Generated++
	dec = n.Proto.DecideTx(now, n.Windows, n.Batt.Stored())
	n.obsTL.Decision(dec.Window, dec.Drop)
	if dec.Drop {
		n.Stats.NeverSent++
		n.Stats.Dropped++
		n.Stats.LatencyPenalized += n.Period
		return dec, -1
	}
	window = mathx.ClampInt(dec.Window, 0, n.Windows-1)
	n.Stats.WindowHist.Add(window)
	return dec, window
}

// Reports queues the battery's new SoC transitions for reporting and
// returns the ones the next uplink carries; its payload is sized for
// exactly these. The slice aliases the queue and stays valid until the
// next Reports, ReportsDelivered or Reboot.
func (n *Node) Reports() []battery.Transition {
	n.drainReports()
	return n.charged()
}

// ReportsDelivered empties the report queue once an ACK confirms the
// gateway ingested the uplink.
func (n *Node) ReportsDelivered() { n.pendingTrans = n.pendingTrans[:0] }

// Settle books a finished packet: delivery statistics (lat is its
// generation-to-outcome latency, used only when delivered), the
// protocol's learning from the attempts it cost, and the obs timeline.
func (n *Node) Settle(o mac.Outcome, lat simtime.Duration) {
	if o.Delivered {
		n.Stats.Delivered++
		n.Stats.LatencyDelivered += lat
		n.Stats.LatencyPenalized += lat
		n.Stats.UtilitySum += utility.Linear{}.Value(o.Window, n.Windows)
	} else {
		n.Stats.Dropped++
		n.Stats.LatencyPenalized += n.Period
	}
	if o.Attempts > 0 {
		n.Proto.OnOutcome(o)
	}
	n.obsTL.PacketDone(o.Delivered, o.Attempts)
}

// Reboot restarts the node after a brownout: the protocol's volatile
// state (w_u, learned estimators) and the unreported transition backlog
// are lost, and the rejoin exchange — one join request at the base
// settings plus the receive windows for the join accept — is charged to
// the battery. The caller settles any in-flight packet first and then
// re-admits the node at the network server.
func (n *Node) Reboot(now simtime.Time) {
	n.Integrate(now)
	n.Proto.Reset()
	n.pendingTrans = n.pendingTrans[:0]
	n.transBuf = n.Batt.AppendTransitions(n.transBuf[:0]) // recorded but never reported: gone
	n.Stats.Brownouts++
	n.obsTL.RecordEvent(now, "brownout")
	joinE := n.Params.TxEnergy(joinPayloadBytes) + n.RxEnergyJ
	n.Draw(joinE)
	n.Stats.TxEnergyJ += joinE
}

// RecordTimeline appends the node's obs timeline row at now. It only
// reads state, so sampling cannot perturb the run.
func (n *Node) RecordTimeline(now simtime.Time) {
	if n.obsTL == nil {
		return
	}
	bd := n.Batt.Damage(now)
	n.obsTL.Record(now, n.Batt.SoC(), bd.Calendar, bd.Cycle, bd.Total, len(n.pendingTrans))
}

// drainReports appends the battery's new SoC transitions to the pending
// report queue, compressed to the paper's two-per-period budget: only
// the extreme (min and max SoC) transitions of each drain survive.
func (n *Node) drainReports() {
	n.transBuf = n.Batt.AppendTransitions(n.transBuf[:0])
	trans := n.transBuf
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
			n.transPair[0], n.transPair[1] = trans[first], trans[second]
			trans = n.transPair[:]
		}
	}
	// Bound the backlog: a node that cannot deliver for a long time keeps
	// only the most recent reports (the gateway tolerates gaps).
	const maxBacklog = 16
	if n.pendingTrans == nil {
		// The backlog never exceeds maxBacklog entries, so one full-size
		// allocation replaces the append growth chain.
		n.pendingTrans = make([]battery.Transition, 0, maxBacklog+2)
	}
	n.pendingTrans = append(n.pendingTrans, trans...)
	if len(n.pendingTrans) > maxBacklog {
		n.pendingTrans = append(n.pendingTrans[:0], n.pendingTrans[len(n.pendingTrans)-maxBacklog:]...)
	}
}

// charged is the part of the report queue one uplink carries: the most
// recent maxReportsPerPacket transitions. The attempt sizes payload,
// airtime and energy for exactly these reports.
func (n *Node) charged() []battery.Transition {
	if k := len(n.pendingTrans) - maxReportsPerPacket; k > 0 {
		return n.pendingTrans[k:]
	}
	return n.pendingTrans
}

// EncodeReports converts the charged reports to wire form relative to
// the packet transmission time. The returned slice is a per-node buffer
// reused on the next call; the network server decodes it immediately.
func (n *Node) EncodeReports(packetAt simtime.Time, window simtime.Duration) []battery.Report {
	reports := n.charged()
	if len(reports) == 0 {
		return nil
	}
	if n.reportBuf == nil {
		n.reportBuf = make([]battery.Report, 0, maxReportsPerPacket)
	}
	out := n.reportBuf[:0]
	for _, tr := range reports {
		out = append(out, battery.EncodeTransition(tr, packetAt, window))
	}
	n.reportBuf = out
	return out
}
