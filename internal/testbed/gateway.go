package testbed

import (
	"sync"

	"repro/internal/battery"
	"repro/internal/faults"
	"repro/internal/netserver"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Gateway is the shared radio head plus the network server, accessed
// concurrently by every node goroutine. It wraps the same Medium the
// simulator uses (so collision physics cannot diverge between
// substrates) behind a mutex.
type Gateway struct {
	mu     sync.Mutex
	med    *sim.Medium
	server *netserver.Server
	plan   *faults.Plan // nil: perfect control plane
}

// NewGateway wires the radio medium to the network server.
func NewGateway(med *sim.Medium, server *netserver.Server) *Gateway {
	return &Gateway{med: med, server: server}
}

// SetFaultPlan installs control-plane fault injection. Call before the
// node goroutines start; per-node fault streams keep draws deterministic
// per node regardless of goroutine interleaving.
func (g *Gateway) SetFaultPlan(plan *faults.Plan) { g.plan = plan }

// Rejoin re-admits a restarted node, preserving its server-side
// degradation history.
func (g *Gateway) Rejoin(nodeID int, soc float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.server.Rejoin(nodeID, soc)
}

// NewTransmission hands out a pooled transmission from the medium's
// free list. The caller owns it exclusively until EndUplink recycles
// it (the mutex hand-off makes the transfer race-free).
func (g *Gateway) NewTransmission() *sim.Transmission {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.med.NewTransmission()
}

// BeginUplink registers a node's transmission start.
func (g *Gateway) BeginUplink(tx *sim.Transmission) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.med.BeginUplink(tx)
}

// EndUplink resolves a transmission. When the packet decodes, the
// gateway ingests its SoC reports and tries to reserve the downlink for
// an ACK at rx1; ackAt is valid only when ackReserved is true.
func (g *Gateway) EndUplink(tx *sim.Transmission, nodeID int, reports []battery.Report,
	now simtime.Time, window simtime.Duration, rx1Delay, ackAirtime simtime.Duration,
) (decoded, ackReserved bool, ackEnd simtime.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	gws := g.med.EndUplink(tx)
	if len(gws) == 0 {
		return false, false, 0
	}
	if g.plan.GatewayDown(now) || g.plan.DropUplink(nodeID) {
		// PHY decoded but the packet never reached the network server:
		// from the node's side this is indistinguishable from a collision.
		return false, false, 0
	}
	g.server.Ingest(nodeID, reports, now, window)
	if g.plan.DuplicateUplink(nodeID) {
		g.server.Ingest(nodeID, reports, now, window) // idempotent no-op
	}
	if g.plan.DropDownlink(nodeID) {
		return true, false, 0
	}
	rx1 := now.Add(rx1Delay)
	ackEnd = rx1.Add(ackAirtime)
	for _, gw := range gws {
		if g.med.ReserveDownlink(gw, rx1, ackEnd) {
			return true, true, ackEnd
		}
	}
	return true, false, 0
}

// StartAck marks the gateway radio busy for the reserved ACK; the
// sending node calls it at rx1 (it owns the reservation). The emulated
// testbed has a single gateway.
func (g *Gateway) StartAck(until simtime.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.med.BeginDownlink(0, until)
}

// AckPayload returns the normalized degradation the ACK carries for the
// node.
func (g *Gateway) AckPayload(nodeID int) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.server.NormalizedDegradation(nodeID)
}

// Recompute runs the periodic degradation recomputation at the grid
// slot holding now; an outage window skips the slot.
func (g *Gateway) Recompute(now simtime.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.plan.GatewayDown(now) {
		return
	}
	g.server.Recompute(now)
}
