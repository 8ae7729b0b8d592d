// Package netserver implements the gateway/network-server side of the
// protocol (Sec. III-B): it reconstructs each node's state-of-charge
// trace from the 4-byte transition reports piggy-backed on uplink
// packets, recomputes battery degradation with the incremental rainflow
// tracker, and derives the normalized degradation w_u = D_u / D_max that
// is disseminated back to nodes on ACKs (refreshed once per recompute
// interval — daily in the paper — and quantized to one byte).
//
// Ingestion is idempotent and order-tolerant: retransmitted packets
// (a retry after a lost ACK, or backhaul duplication) and reordered
// deliveries are dropped by per-node watermarks instead of corrupting
// the reconstructed trace with phantom rainflow cycles.
package netserver

import (
	"fmt"
	"math"

	"repro/internal/battery"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// MaxNodeID is the largest node ID the server admits. The per-node
// index is dense, so one huge ID would allocate a slot for every
// smaller ID; four million slots (32 MiB of index) leave room above the
// largest fleet in this tree, a million nodes. Every way an ID enters
// from outside refuses one beyond it with an error — Scenario.Validate,
// lns.ParseObsJSONL, POST /v1/register and Restore — so Register may
// treat one as a caller's bug.
const MaxNodeID = 1<<22 - 1

// noneYet marks "no packet/report seen yet" in the per-node watermarks;
// simulation time starts at 0, so any real instant exceeds it.
const noneYet = simtime.Time(-1)

// Server is the network-server state; Recompute is its one recompute
// path. It is not safe for concurrent use: the simulator drives it
// from its one event loop, the testbed gateway guards it with its
// mutex, and the LNS daemon gives each shard a private Server owned by
// one worker.
type Server struct {
	model    battery.Model
	tempC    float64
	interval simtime.Duration

	// nodes is indexed by node ID (IDs are small and dense in every
	// deployment this server sees); nil slots are unregistered. numNodes
	// counts the non-nil slots.
	nodes    []*nodeState
	numNodes int

	// Recomputes run at barriers on a virtual clock — the newest instant
	// folded in via AdvanceClock — and evaluate only at grid instants
	// derived from it, never mid-stream. clock is a running maximum
	// over the instants seen, so it is independent of ingest order;
	// degrAt is the grid instant of the latest RecomputeDegrAt (noneYet
	// before the first, and after a Restore); dirty marks tracker/fleet
	// mutations since then, letting a repeated barrier at the same
	// instant skip the O(nodes) degradation pass.
	clock  simtime.Time
	degrAt simtime.Time
	dirty  bool

	// Observability handles; nil (no-op) unless SetObserver installed
	// them.
	cPackets, cPacketsDup, cReports, cReportsStale, cRecomputes *obs.Counter
	cRegisters, cRejoins                                        *obs.Counter
	gDmax                                                       *obs.Gauge
}

// SetObserver attaches observability counters. A nil or disabled
// recorder leaves the server un-instrumented.
func (s *Server) SetObserver(r *obs.Recorder) {
	if !r.Enabled() {
		return
	}
	s.cPackets = r.Counter("netserver.packets_ingested")
	s.cPacketsDup = r.Counter("netserver.packets_duplicate")
	s.cReports = r.Counter("netserver.reports_ingested")
	s.cReportsStale = r.Counter("netserver.reports_stale")
	s.cRecomputes = r.Counter("netserver.recomputes")
	s.cRegisters = r.Counter("netserver.registers")
	s.cRejoins = r.Counter("netserver.rejoins")
	s.gDmax = r.Gauge("netserver.dmax")
}

type nodeState struct {
	tracker *battery.Tracker
	degr    float64 // latest computed capacity fade
	wu      byte    // latest normalized degradation, quantized to 1 byte

	// lastPacketAt is the reception time of the newest ingested packet;
	// packets at or before it are duplicates or reordered stragglers.
	lastPacketAt simtime.Time
	// lastReportAt is the newest decoded transition time across all
	// previously ingested packets; reports at or before it were already
	// pushed (or superseded) and are dropped.
	lastReportAt simtime.Time
}

// New returns a server using the given degradation model, battery
// temperature, and recomputation interval (the paper uses one day).
func New(model battery.Model, tempC float64, interval simtime.Duration) (*Server, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if interval <= 0 {
		return nil, fmt.Errorf("netserver: non-positive recompute interval %v", interval)
	}
	return &Server{
		model:    model,
		tempC:    tempC,
		interval: interval,
		clock:    noneYet,
		degrAt:   noneYet,
	}, nil
}

// Register adds a node with its initial state of charge. Registering an
// existing node resets its ENTIRE history: the degradation tracker AND
// the ingestion watermarks return to "nothing seen yet", so a report or
// packet retransmitted from before the reset replays as fresh data.
// That is correct exactly once — when the physical battery itself was
// replaced. A node that merely restarted (brownout, firmware reboot)
// must go through Rejoin, which keeps both the degradation history and
// the watermarks; the simulator's brownout path and the testbed gateway
// do so, and TestSimBrownoutRejoinsNeverReregisters pins it. An ID
// outside [0, MaxNodeID] panics: the dense index has no slot for it,
// and silently dropping the node would leave it out of every w_u.
func (s *Server) Register(nodeID int, initialSoC float64) {
	if nodeID < 0 || nodeID > MaxNodeID {
		panic(fmt.Sprintf("netserver: Register of node %d outside [0, %d]", nodeID, MaxNodeID))
	}
	s.cRegisters.Inc()
	st := &nodeState{
		tracker:      battery.NewTracker(s.model, s.tempC),
		lastPacketAt: noneYet,
		lastReportAt: noneYet,
	}
	st.tracker.Push(initialSoC)
	for nodeID >= len(s.nodes) {
		s.nodes = append(s.nodes, nil)
	}
	if s.nodes[nodeID] == nil {
		s.numNodes++
	}
	s.nodes[nodeID] = st
	s.dirty = true
}

// state returns the node's state or nil when unregistered.
func (s *Server) state(nodeID int) *nodeState {
	if nodeID < 0 || nodeID >= len(s.nodes) {
		return nil
	}
	return s.nodes[nodeID]
}

// Rejoin re-admits a node after a restart (e.g. a brownout) with its
// current state of charge. Unlike Register it preserves the accumulated
// degradation history — the battery did not reset, only the node's
// volatile state did — and keeps the ingestion watermarks so reports
// retransmitted from before the restart remain deduplicated. Unknown
// nodes fall back to a fresh registration.
func (s *Server) Rejoin(nodeID int, currentSoC float64) {
	st := s.state(nodeID)
	if st == nil {
		s.Register(nodeID, currentSoC)
		return
	}
	s.cRejoins.Inc()
	st.tracker.Push(currentSoC)
	s.dirty = true
}

// NumNodes returns how many nodes are registered.
func (s *Server) NumNodes() int { return s.numNodes }

// Registered reports whether the node is currently registered.
func (s *Server) Registered(nodeID int) bool { return s.state(nodeID) != nil }

// Ingest folds a decoded packet's transition reports into the node's
// reconstructed SoC trace. packetAt is the packet's reception time and
// window the node's forecast-window length (needed to decode the
// relative timestamps). Unknown nodes are ignored: a production server
// would trigger a join procedure, which is out of scope here.
//
// Duplicate and stale data is dropped at two levels. Whole packets at
// or before the newest ingested packet time are discarded (exact
// backhaul duplicates, reordered deliveries). Within a newer packet,
// reports whose decoded transition time is at or before the newest
// report of any previous packet are discarded (a retry re-piggybacking
// unACKed reports alongside fresh ones). The report watermark is held
// fixed while one packet is processed, so several same-window
// transitions inside a single packet all pass.
func (s *Server) Ingest(nodeID int, reports []battery.Report, packetAt simtime.Time, window simtime.Duration) {
	st := s.state(nodeID)
	if st == nil {
		return
	}
	if packetAt <= st.lastPacketAt {
		s.cPacketsDup.Inc()
		return
	}
	s.cPackets.Inc()
	s.dirty = true
	st.lastPacketAt = packetAt
	newest := st.lastReportAt
	for _, r := range reports {
		tr := r.Decode(packetAt, window)
		if tr.At <= st.lastReportAt {
			s.cReportsStale.Inc()
			continue
		}
		s.cReports.Inc()
		st.tracker.Push(tr.SoC)
		if tr.At > newest {
			newest = tr.At
		}
	}
	st.lastReportAt = newest
}

// AdvanceClock folds an observed instant into the virtual clock as a
// running maximum. Because max is commutative and associative, the
// resulting clock depends only on the SET of instants seen — not their
// order — which is the property that lets sharded daemons ingesting
// arbitrary interleavings of the same traffic agree on recompute grid
// slots.
func (s *Server) AdvanceClock(at simtime.Time) {
	if at > s.clock {
		s.clock = at
	}
}

// Clock returns the virtual clock (noneYet when no instant was folded).
func (s *Server) Clock() simtime.Time { return s.clock }

// GridInstant maps a virtual clock to the newest recompute-grid slot at
// or before it. The grid is anchored at virtual time 0 in multiples of
// the interval — a fixed property of the configuration, not of when the
// first uplink happened to arrive — so every shard of a fleet derives
// the same slot from the same clock with no coordination beyond the
// clock itself. A clock of noneYet (no traffic) maps to slot 0.
func GridInstant(clock simtime.Time, interval simtime.Duration) simtime.Time {
	if clock <= 0 || interval <= 0 {
		return 0
	}
	return clock - clock%simtime.Time(interval)
}

// GridInstant returns the server's current grid slot (see the free
// function).
func (s *Server) GridInstant() simtime.Time { return GridInstant(s.clock, s.interval) }

// RecomputeDegrAt evaluates every node's degradation at the given grid
// instant and returns the local maximum — the first half of a barrier
// recompute, run per shard; the caller folds the returned maxima into
// the fleet-wide D_max and feeds it back through ApplyWu. The O(nodes)
// degradation pass is skipped when nothing changed since a recompute at
// the same instant (the evaluation is a pure function of tracker state
// and instant, so skipping cannot change any observable).
func (s *Server) RecomputeDegrAt(now simtime.Time) (dmax float64, ran bool) {
	if s.dirty || s.degrAt != now {
		for _, st := range s.nodes {
			if st == nil {
				continue
			}
			st.degr = st.tracker.Degradation(simtime.Duration(now))
		}
		s.degrAt = now
		s.dirty = false
		s.cRecomputes.Inc()
		ran = true
	}
	for _, st := range s.nodes {
		if st == nil {
			continue
		}
		dmax = math.Max(dmax, st.degr)
	}
	return dmax, ran
}

// ApplyWu disseminates the fleet-wide maximum degradation: every node's
// w_u is requantized as degr/dmax — the second half of a barrier
// recompute, run per shard after the coordinator merged the local
// maxima from RecomputeDegrAt.
func (s *Server) ApplyWu(dmax float64) {
	for _, st := range s.nodes {
		if st == nil {
			continue
		}
		wu := 0.0
		if dmax > 0 {
			wu = st.degr / dmax
		}
		st.wu = QuantizeWu(wu)
	}
	s.gDmax.Set(dmax)
}

// Recompute runs one barrier recompute: it folds `at` into the virtual
// clock (-1 folds nothing), evaluates every node's degradation at the
// resulting grid slot, and refreshes the w_u table against the maximum.
// The sharded LNS daemon composes the same three steps across shards.
// It reports whether the degradation pass ran (false when nothing
// changed since a recompute at the same slot).
func (s *Server) Recompute(at simtime.Time) bool {
	s.AdvanceClock(at)
	dmax, ran := s.RecomputeDegrAt(s.GridInstant())
	s.ApplyWu(dmax)
	return ran
}

// QuantizeWu quantizes a normalized degradation in [0,1] to the 1-byte
// wire form carried on ACKs. NaN clamps to 0 explicitly: min/max
// propagate NaN, and Go's float-to-integer conversion of NaN yields an
// implementation-defined value — a daemon ingesting malformed reports
// must not disseminate an arbitrary byte for it.
func QuantizeWu(wu float64) byte {
	if math.IsNaN(wu) {
		return 0
	}
	return byte(math.Round(min(1, max(0, wu)) * 255))
}

// DequantizeWu recovers the normalized degradation from its 1-byte wire
// form, exactly as a node interprets the ACK payload.
func DequantizeWu(b byte) float64 { return float64(b) / 255 }

// NormalizedDegradation returns the node's latest w_u as the node will
// receive it: quantized to 1/255 steps (the 1-byte ACK piggyback).
func (s *Server) NormalizedDegradation(nodeID int) float64 {
	st := s.state(nodeID)
	if st == nil {
		return 0
	}
	return DequantizeWu(st.wu)
}

// Degradation returns the node's latest computed capacity fade.
func (s *Server) Degradation(nodeID int) float64 {
	st := s.state(nodeID)
	if st == nil {
		return 0
	}
	return st.degr
}

// MaxDegradation returns the highest computed capacity fade in the
// network and the node holding it (-1 when no nodes are registered).
// Ties break toward the lowest node ID by construction: the index walk
// is ascending and the running maximum only moves on a strict
// improvement, so the first node carrying the maximum keeps it. (An
// earlier version also had an `id < nodeID` tie-break arm, unreachable
// under the ascending walk — a later equal-degradation id is never
// smaller than the one already held.)
func (s *Server) MaxDegradation() (nodeID int, degradation float64) {
	nodeID = -1
	for id, st := range s.nodes {
		if st == nil {
			continue
		}
		if nodeID == -1 || st.degr > degradation {
			nodeID, degradation = id, st.degr
		}
	}
	return nodeID, degradation
}
