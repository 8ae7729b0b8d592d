// Package faults models an imperfect control plane for the protocol:
// lost or duplicated uplinks after PHY success (backhaul loss), lost
// downlink ACKs carrying the w_u beacon, scheduled gateway outage
// windows, and node brownouts that wipe volatile MAC state.
//
// The paper's evaluation assumes a perfect control plane — every ACK
// arrives, every transition report is ingested exactly once and in
// order, and the gateway never misses its daily recompute. Long-Lived
// LoRa-style min-lifetime objectives are acutely sensitive to which
// node the network believes is worst-off, so this package makes the
// control plane lossy on purpose: a deterministic, seed-derived Plan
// answers every "does this fault fire?" question from independent
// per-node RNG streams (via runner.DeriveSeed), keeping runs
// byte-identical at a fixed seed regardless of worker count.
//
// With every knob at zero the Plan is inert: no stream is ever
// consulted and the hosting substrate behaves exactly as before.
package faults

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/runner"
	"repro/internal/simtime"
)

// Config holds every fault knob of one run. The zero value disables all
// faults and degradation behaviour.
type Config struct {
	// DownlinkLoss is the probability that a downlink ACK (and the w_u
	// beacon it carries) is lost after the uplink decoded and the
	// network server ingested it. The node sees a missing ACK and
	// retries with the reports still piggy-backed.
	DownlinkLoss float64
	// UplinkLoss is the probability that a PHY-decoded uplink is lost
	// on the backhaul before reaching the network server: no ingestion
	// and no ACK.
	UplinkLoss float64
	// UplinkDup is the probability that a PHY-decoded uplink is
	// delivered to the network server twice (backhaul duplication).
	// Ingestion must be idempotent for this to be harmless.
	UplinkDup float64

	// OutageStart is when the first gateway outage window opens.
	OutageStart simtime.Duration
	// OutageLen is the length of each outage window; 0 disables
	// outages. During an outage the gateway neither serves uplinks nor
	// runs its daily recompute.
	OutageLen simtime.Duration
	// OutageEvery repeats the outage with this period; 0 means a single
	// outage window.
	OutageEvery simtime.Duration

	// BrownoutMTBF is the per-node mean time between brownouts
	// (exponentially distributed); 0 disables brownouts. A brownout
	// restarts the node, losing its volatile MAC state (w_u, energy
	// estimator, retransmission history, unreported transitions).
	BrownoutMTBF simtime.Duration

	// WuTTL is the node-side stale-weight TTL: when no w_u beacon
	// arrived for longer than this, the node falls back to
	// WuStaleFallback instead of trusting the stale weight. 0 disables
	// staleness tracking (the node trusts w_u forever, as the paper
	// implicitly assumes).
	WuTTL simtime.Duration
	// WuStaleFallback is the conservative w_u assumed while stale; the
	// protocol treats the node as if it were this close to being the
	// network's worst-off battery. Most conservative is 1.
	WuStaleFallback float64
}

// Validate reports the first invalid knob.
func (c Config) Validate() error {
	switch {
	case c.DownlinkLoss < 0 || c.DownlinkLoss > 1:
		return fmt.Errorf("faults: downlink loss %v outside [0,1]", c.DownlinkLoss)
	case c.UplinkLoss < 0 || c.UplinkLoss > 1:
		return fmt.Errorf("faults: uplink loss %v outside [0,1]", c.UplinkLoss)
	case c.UplinkDup < 0 || c.UplinkDup > 1:
		return fmt.Errorf("faults: uplink duplication %v outside [0,1]", c.UplinkDup)
	case c.OutageStart < 0:
		return fmt.Errorf("faults: negative outage start %v", c.OutageStart)
	case c.OutageLen < 0:
		return fmt.Errorf("faults: negative outage length %v", c.OutageLen)
	case c.OutageEvery < 0:
		return fmt.Errorf("faults: negative outage period %v", c.OutageEvery)
	case c.OutageEvery > 0 && c.OutageEvery < c.OutageLen:
		return fmt.Errorf("faults: outage period %v shorter than outage length %v", c.OutageEvery, c.OutageLen)
	case c.BrownoutMTBF < 0:
		return fmt.Errorf("faults: negative brownout MTBF %v", c.BrownoutMTBF)
	case c.WuTTL < 0:
		return fmt.Errorf("faults: negative w_u TTL %v", c.WuTTL)
	case c.WuStaleFallback < 0 || c.WuStaleFallback > 1:
		return fmt.Errorf("faults: w_u stale fallback %v outside [0,1]", c.WuStaleFallback)
	}
	return nil
}

// Active reports whether any fault-injection knob is set (control-plane
// loss, outages, or brownouts). The node-side staleness knobs (WuTTL,
// WuStaleFallback) are degradation behaviour, not injected faults, and
// do not require a Plan.
func (c Config) Active() bool {
	return c.DownlinkLoss > 0 || c.UplinkLoss > 0 || c.UplinkDup > 0 ||
		c.OutageLen > 0 || c.BrownoutMTBF > 0
}

// Plan is the materialized fault schedule of one run: per-node RNG
// streams for control-plane coin flips and brownout timing, derived
// from the scenario seed. A nil *Plan is valid and injects nothing.
//
// Stream discipline: every node has its own streams, so one node's
// draws do not depend on how its traffic interleaves with other nodes',
// and the simulator's single-threaded event order makes whole runs
// byte-identical at a fixed seed.
type Plan struct {
	cfg   Config
	nodes []nodeStreams
}

type nodeStreams struct {
	ctrl  *rand.Rand // control-plane coin flips, consumed in uplink order
	brown *rand.Rand // brownout schedule
}

// NewPlan derives a fault plan for the given number of nodes from the
// scenario seed. The config must validate.
func NewPlan(cfg Config, seed uint64, nodes int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("faults: plan needs at least one node, got %d", nodes)
	}
	p := &Plan{cfg: cfg, nodes: make([]nodeStreams, nodes)}
	for id := range p.nodes {
		// Replicate index id+1: DeriveSeed(base, label, 0) returns the
		// base seed unchanged, which would alias node 0's streams onto
		// the scenario's own RNG lineage.
		p.nodes[id] = nodeStreams{
			ctrl:  rand.New(rand.NewPCG(runner.DeriveSeed(seed, "faults/ctrl", id+1), 0x0fa17)),
			brown: rand.New(rand.NewPCG(runner.DeriveSeed(seed, "faults/brownout", id+1), 0xb120)),
		}
	}
	return p, nil
}

// Config returns the plan's knobs (zero Config for a nil plan).
func (p *Plan) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// streams panics on out-of-range IDs: fault draws for unknown nodes
// would silently desynchronize the per-node streams.
func (p *Plan) streams(nodeID int) *nodeStreams { return &p.nodes[nodeID] }

// DropUplink reports whether the backhaul loses this node's decoded
// uplink. A nil plan never drops.
func (p *Plan) DropUplink(nodeID int) bool {
	if p == nil || p.cfg.UplinkLoss <= 0 {
		return false
	}
	return p.streams(nodeID).ctrl.Float64() < p.cfg.UplinkLoss
}

// DuplicateUplink reports whether the backhaul delivers this node's
// decoded uplink to the network server twice.
func (p *Plan) DuplicateUplink(nodeID int) bool {
	if p == nil || p.cfg.UplinkDup <= 0 {
		return false
	}
	return p.streams(nodeID).ctrl.Float64() < p.cfg.UplinkDup
}

// DropDownlink reports whether this node's downlink ACK is lost after
// the uplink was served.
func (p *Plan) DropDownlink(nodeID int) bool {
	if p == nil || p.cfg.DownlinkLoss <= 0 {
		return false
	}
	return p.streams(nodeID).ctrl.Float64() < p.cfg.DownlinkLoss
}

// GatewayDown reports whether the gateway is inside a scheduled outage
// window at the given instant. It is a pure function of time.
func (p *Plan) GatewayDown(at simtime.Time) bool {
	if p == nil || p.cfg.OutageLen <= 0 {
		return false
	}
	t := simtime.Duration(at) - p.cfg.OutageStart
	if t < 0 {
		return false
	}
	if p.cfg.OutageEvery > 0 {
		t %= p.cfg.OutageEvery
	}
	return t < p.cfg.OutageLen
}

// NextBrownout draws the node's next brownout instant strictly after
// the given time, exponentially distributed with mean BrownoutMTBF. It
// reports false when brownouts are disabled.
func (p *Plan) NextBrownout(nodeID int, after simtime.Time) (simtime.Time, bool) {
	if p == nil || p.cfg.BrownoutMTBF <= 0 {
		return 0, false
	}
	u := p.streams(nodeID).brown.Float64()
	gap := simtime.Duration(-math.Log(1-u) * float64(p.cfg.BrownoutMTBF))
	if gap < simtime.Second {
		gap = simtime.Second // a rebooting node cannot brown out again instantly
	}
	return after.Add(gap), true
}
