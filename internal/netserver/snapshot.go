package netserver

import (
	"fmt"

	"repro/internal/battery"
	"repro/internal/simtime"
)

// SnapshotSchema identifies the snapshot layout; bump it when fields
// change meaning so a daemon refuses to restore a foreign format.
// Schema 2 added ClockMs (the barrier-recompute virtual clock); schema
// 3 dropped the three fields of the first-call recompute anchor. Restore
// still accepts schema 2: encoding/json ignores the dropped fields, and
// nothing else changed meaning.
const SnapshotSchema = 3

// NodeSnapshot is one node's serializable server-side state.
type NodeSnapshot struct {
	ID      int                     `json:"id"`
	Tracker battery.TrackerSnapshot `json:"tracker"`
	// Degr and Wu are the results of the node's latest recompute; they
	// are carried so a restored server disseminates the same values
	// before its first recompute runs.
	Degr float64 `json:"degr"`
	Wu   byte    `json:"wu"`
	// LastPacketAtMs / LastReportAtMs are the ingestion watermarks
	// (simulated milliseconds; -1 = nothing seen yet). Restoring them is
	// what keeps a pre-snapshot retransmission deduplicated after a
	// restart.
	LastPacketAtMs int64 `json:"last_packet_at_ms"`
	LastReportAtMs int64 `json:"last_report_at_ms"`
}

// Snapshot is the full serializable server state. It embeds the model
// and configuration so a restored daemon cannot silently recompute under
// different constants than the state was accumulated with.
type Snapshot struct {
	Schema     int           `json:"schema"`
	Model      battery.Model `json:"model"`
	TempC      float64       `json:"temp_c"`
	IntervalMs int64         `json:"interval_ms"`
	// ClockMs is the virtual clock of the barrier-recompute discipline
	// (newest uplink instant folded in; -1 = no traffic yet).
	ClockMs int64 `json:"clock_ms"`
	// Nodes is ascending by ID; unregistered slots are absent.
	Nodes []NodeSnapshot `json:"nodes"`
}

// Snapshot captures the server's complete state. The ascending index
// walk makes the node order (and hence the serialized bytes for a given
// state) deterministic.
func (s *Server) Snapshot() *Snapshot {
	snap := &Snapshot{
		Schema:     SnapshotSchema,
		Model:      s.model,
		TempC:      s.tempC,
		IntervalMs: int64(s.interval),
		ClockMs:    int64(s.clock),
		Nodes:      make([]NodeSnapshot, 0, s.numNodes),
	}
	for id, st := range s.nodes {
		if st == nil {
			continue
		}
		snap.Nodes = append(snap.Nodes, NodeSnapshot{
			ID:             id,
			Tracker:        st.tracker.Snapshot(),
			Degr:           st.degr,
			Wu:             st.wu,
			LastPacketAtMs: int64(st.lastPacketAt),
			LastReportAtMs: int64(st.lastReportAt),
		})
	}
	return snap
}

// Restore rebuilds a server from a snapshot. The result answers every
// subsequent Ingest/Recompute sequence with the same bytes the
// snapshotted server would have: tracker restoration is exact (see
// battery.RestoreTracker) and the virtual clock, dissemination results,
// and ingestion watermarks are all carried over. The instant of the
// latest degradation pass is not: the first barrier after a restore
// always evaluates, which costs one O(nodes) pass and cannot publish
// w_u staler than the restored trackers.
func Restore(snap *Snapshot) (*Server, error) {
	if snap.Schema != 2 && snap.Schema != SnapshotSchema {
		return nil, fmt.Errorf("netserver: snapshot schema %d, want 2 or %d", snap.Schema, SnapshotSchema)
	}
	s, err := New(snap.Model, snap.TempC, simtime.Duration(snap.IntervalMs))
	if err != nil {
		return nil, err
	}
	s.clock = simtime.Time(snap.ClockMs)
	prev := -1
	for _, ns := range snap.Nodes {
		if ns.ID <= prev {
			return nil, fmt.Errorf("netserver: snapshot nodes not ascending (%d after %d)", ns.ID, prev)
		}
		if ns.ID > MaxNodeID {
			return nil, fmt.Errorf("netserver: snapshot node %d above MaxNodeID %d", ns.ID, MaxNodeID)
		}
		prev = ns.ID
		st := &nodeState{
			tracker:      battery.RestoreTracker(snap.Model, snap.TempC, ns.Tracker),
			degr:         ns.Degr,
			wu:           ns.Wu,
			lastPacketAt: simtime.Time(ns.LastPacketAtMs),
			lastReportAt: simtime.Time(ns.LastReportAtMs),
		}
		for ns.ID >= len(s.nodes) {
			s.nodes = append(s.nodes, nil)
		}
		s.nodes[ns.ID] = st
		s.numNodes++
	}
	return s, nil
}

// MergeSnapshots folds per-shard snapshots (disjoint node sets, each
// ascending by ID) into the single snapshot a 1-shard server holding
// the union would produce. The global fields must agree across shards —
// they do by construction (same schema, interval and model) — except
// the virtual clock, which merges
// as the maximum, mirroring how AdvanceClock folds instants. Shards
// that disagree on a global field indicate a coordination bug and are
// rejected rather than silently papered over.
func MergeSnapshots(parts []*Snapshot) (*Snapshot, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("netserver: merge of zero snapshots")
	}
	total := 0
	out := *parts[0]
	for i, p := range parts {
		if p.Schema != out.Schema || p.Model != out.Model || p.TempC != out.TempC ||
			p.IntervalMs != out.IntervalMs {
			return nil, fmt.Errorf("netserver: shard %d snapshot disagrees on global state", i)
		}
		if p.ClockMs > out.ClockMs {
			out.ClockMs = p.ClockMs
		}
		total += len(p.Nodes)
	}
	out.Nodes = make([]NodeSnapshot, 0, total)
	idx := make([]int, len(parts))
	for len(out.Nodes) < total {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p.Nodes) {
				continue
			}
			if best == -1 || p.Nodes[idx[i]].ID < parts[best].Nodes[idx[best]].ID {
				best = i
			}
		}
		node := parts[best].Nodes[idx[best]]
		if n := len(out.Nodes); n > 0 && out.Nodes[n-1].ID >= node.ID {
			return nil, fmt.Errorf("netserver: shard snapshots overlap or misorder at node %d", node.ID)
		}
		out.Nodes = append(out.Nodes, node)
		idx[best]++
	}
	return &out, nil
}

// SplitSnapshot partitions a snapshot into per-shard snapshots by the
// given node→shard map, copying the global fields (including the clock:
// it is a running maximum, so giving every shard the full value is
// exact — a shard never observes an instant above the fleet clock).
// It is the inverse of MergeSnapshots for any shardOf that routes each
// node to one shard.
func SplitSnapshot(snap *Snapshot, shards int, shardOf func(nodeID int) int) []*Snapshot {
	parts := make([]*Snapshot, shards)
	for i := range parts {
		p := *snap
		p.Nodes = nil
		parts[i] = &p
	}
	for _, ns := range snap.Nodes {
		i := shardOf(ns.ID)
		parts[i].Nodes = append(parts[i].Nodes, ns)
	}
	return parts
}

// MergeWuTables folds per-shard w_u tables (disjoint, each ascending by
// node ID) into one ascending table — the dissemination-path twin of
// MergeSnapshots.
func MergeWuTables(parts [][]NodeWu) []NodeWu {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]NodeWu, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best == -1 || p[idx[i]].Node < parts[best][idx[best]].Node {
				best = i
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// NodeWu is one row of the disseminated w_u table.
type NodeWu struct {
	Node int  `json:"node"`
	Wu   byte `json:"wu"`
}

// WuTable returns every registered node's latest quantized w_u in
// ascending node-ID order — the exact byte each node would receive on
// its next ACK. The deterministic order makes two tables comparable
// byte-for-byte, which is how the daemon smoke pins HTTP-path ingestion
// against the in-process library path.
func (s *Server) WuTable() []NodeWu {
	table := make([]NodeWu, 0, s.numNodes)
	for id, st := range s.nodes {
		if st == nil {
			continue
		}
		table = append(table, NodeWu{Node: id, Wu: st.wu})
	}
	return table
}
