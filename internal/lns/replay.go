package lns

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/battery"
	"repro/internal/netserver"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// The simulator is the traffic generator: cmd/experiments and
// cmd/blasim export per-run obs JSONL files whose per-node SoC sample
// rows are exactly the reconstructed traces the gateway worked from.
// This file turns such an export back into device traffic — encoded
// transition reports, grouped into uplink packets, interleaved across
// nodes in time order, and chunked into ingest batches.

// NodeTrace is one node's replayable SoC history.
type NodeTrace struct {
	ID int
	// InitialSoC is the SoC the node registers with (its first sample).
	InitialSoC float64
	// Transitions are the SoC samples in ascending time order.
	Transitions []battery.Transition
}

// Trace is a parsed obs JSONL export, reduced to what replay needs.
type Trace struct {
	// SampleEvery is the export's timeline sampling period; it is the
	// default forecast-window length used to encode reports.
	SampleEvery simtime.Duration
	// Nodes is ascending by ID; nodes without samples are absent.
	Nodes []NodeTrace
}

// ParseObsJSONL extracts the replayable trace from an obs JSONL export
// (see internal/obs: one JSON object per line, "t" names the record
// type). Only the manifest and sample records matter here; counters,
// gauges, and events are skipped.
func ParseObsJSONL(r io.Reader) (*Trace, error) {
	type line struct {
		T             string  `json:"t"`
		SampleEveryMs int64   `json:"sample_every_ms"`
		Node          int     `json:"node"`
		AtMs          int64   `json:"at_ms"`
		SoC           float64 `json:"soc"`
	}
	tr := &Trace{SampleEvery: obs.DefaultSampleEvery}
	byNode := make(map[int]*NodeTrace)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("lns: obs jsonl line %d: %w", lineNo, err)
		}
		switch l.T {
		case "manifest":
			if l.SampleEveryMs > 0 {
				tr.SampleEvery = simtime.Duration(l.SampleEveryMs)
			}
		case "sample":
			nt, ok := byNode[l.Node]
			if !ok {
				nt = &NodeTrace{ID: l.Node}
				byNode[l.Node] = nt
			}
			nt.Transitions = append(nt.Transitions, battery.Transition{
				At:  simtime.Time(l.AtMs),
				SoC: l.SoC,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lns: obs jsonl: %w", err)
	}
	ids := make([]int, 0, len(byNode))
	for id := range byNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		nt := byNode[id]
		sort.SliceStable(nt.Transitions, func(i, j int) bool {
			return nt.Transitions[i].At < nt.Transitions[j].At
		})
		// The registration SoC is the node's earliest sample in TIME
		// order, which the exporter usually also writes first — but a
		// shuffled or multi-writer export must not register nodes with
		// whatever sample happened to appear first in the file.
		nt.InitialSoC = nt.Transitions[0].SoC
		tr.Nodes = append(tr.Nodes, *nt)
	}
	if len(tr.Nodes) == 0 {
		return nil, fmt.Errorf("lns: obs jsonl holds no sample records")
	}
	return tr, nil
}

// BuildBatches converts a trace into the replay traffic: per node,
// consecutive transitions group into uplink packets of at most
// reportsPerPacket reports (packet reception one window after its
// newest report, so every offset encodes as a non-negative window
// count); packets from all nodes interleave in global time order; the
// ordered packet list chunks into batches of uplinksPerBatch. The
// construction is deterministic — same trace and knobs, same batches —
// which is what lets a replay split across a snapshot/restart resume at
// a bare batch index.
//
// A non-positive window defaults to the trace's sampling period;
// non-positive counts default to 8 reports per packet and 64 uplinks
// per batch.
func BuildBatches(tr *Trace, window simtime.Duration, reportsPerPacket, uplinksPerBatch int) []Batch {
	if window <= 0 {
		window = tr.SampleEvery
	}
	if window <= 0 {
		window = obs.DefaultSampleEvery
	}
	if reportsPerPacket <= 0 {
		reportsPerPacket = 8
	}
	if uplinksPerBatch <= 0 {
		uplinksPerBatch = 64
	}
	var uplinks []Uplink
	for _, nt := range tr.Nodes {
		for lo := 0; lo < len(nt.Transitions); lo += reportsPerPacket {
			hi := min(lo+reportsPerPacket, len(nt.Transitions))
			group := nt.Transitions[lo:hi]
			packetAt := group[len(group)-1].At.Add(window)
			u := Uplink{
				Node:     nt.ID,
				AtMs:     int64(packetAt),
				WindowMs: int64(window),
				Reports:  make([]WireReport, 0, len(group)),
			}
			for _, t := range group {
				r := battery.EncodeTransition(t, packetAt, window)
				u.Reports = append(u.Reports, WireReport{Ago: r.WindowsAgo, SoCQ: r.SoCQ})
			}
			uplinks = append(uplinks, u)
		}
	}
	// Global time order, node ascending within an instant: the stream a
	// gateway serving all nodes would see.
	sort.SliceStable(uplinks, func(i, j int) bool {
		if uplinks[i].AtMs != uplinks[j].AtMs {
			return uplinks[i].AtMs < uplinks[j].AtMs
		}
		return uplinks[i].Node < uplinks[j].Node
	})
	batches := make([]Batch, 0, (len(uplinks)+uplinksPerBatch-1)/uplinksPerBatch)
	for lo := 0; lo < len(uplinks); lo += uplinksPerBatch {
		hi := min(lo+uplinksPerBatch, len(uplinks))
		batches = append(batches, Batch{Uplinks: uplinks[lo:hi]})
	}
	return batches
}

// RegisterTrace registers every node of the trace with its initial SoC,
// ascending by ID — the library-path mirror of POST /v1/register.
func RegisterTrace(s *netserver.Server, tr *Trace) {
	for _, nt := range tr.Nodes {
		s.Register(nt.ID, nt.InitialSoC)
	}
}

// ReplayBatch folds one batch into the server: each uplink's reports
// are decoded and ingested, and its reception instant advances the
// virtual clock. This is THE apply path — every shard worker of the
// daemon and the in-process reference computation call it, which is
// what makes the two byte-identical by construction.
//
// Deliberately NO recompute happens here. Per-node tracker and
// watermark state depends only on that node's own sub-stream, and the
// clock is a running maximum — both are invariant under any
// interleaving of different nodes' traffic. A mid-stream recompute
// keyed to "which uplink crossed the day boundary" would not be: it
// bakes the arrival order of the whole stream into the disseminated
// w_u. Recomputes instead run only at barriers (Server.Recompute /
// the daemon's control ops), where every shard agrees on the grid
// slot derived from the merged clock.
func ReplayBatch(s *netserver.Server, b Batch) {
	var scratch []battery.Report
	for _, u := range b.Uplinks {
		scratch = scratch[:0]
		for _, r := range u.Reports {
			scratch = append(scratch, battery.Report{WindowsAgo: r.Ago, SoCQ: r.SoCQ})
		}
		at := simtime.Time(u.AtMs)
		s.Ingest(u.Node, scratch, at, simtime.Duration(u.WindowMs))
		s.AdvanceClock(at)
	}
}

// NoAdvance is the Server.Recompute argument that folds no extra
// instant into the clock — barrier at whatever the traffic reached.
const NoAdvance = simtime.Time(-1)

// LastUplinkAt returns the latest uplink reception instant across the
// batches (0 when empty). Replays barrier once more at this instant
// plus the dissemination interval, so the final day of traffic is
// covered by a recompute in both the daemon and reference paths.
func LastUplinkAt(batches []Batch) simtime.Time {
	var last simtime.Time
	for _, b := range batches {
		for _, u := range b.Uplinks {
			if at := simtime.Time(u.AtMs); at > last {
				last = at
			}
		}
	}
	return last
}

// ReplayLocal runs the complete in-process reference computation: a
// fresh server, trace registration, every batch through ReplayBatch,
// and the final barrier recompute — the library path the daemon is
// diffed against.
func ReplayLocal(cfg Config, tr *Trace, batches []Batch) (*netserver.Server, error) {
	cfg = cfg.withDefaults()
	return ReplayLocalRange(cfg, tr, batches, true, LastUplinkAt(batches).Add(cfg.Interval))
}

// ReplayLocalRange is ReplayLocal for a batch prefix: it registers the
// trace, applies the given batches, and runs a barrier recompute —
// folding finalAt into the clock only when final is set. Partial
// replays (loadgen -stop-frac) use final=false, matching the barrier
// any daemon snapshot/wu read performs mid-stream: the grid slot is
// whatever the replayed traffic itself reached.
func ReplayLocalRange(cfg Config, tr *Trace, batches []Batch, final bool, finalAt simtime.Time) (*netserver.Server, error) {
	cfg = cfg.withDefaults()
	s, err := netserver.New(cfg.Model, cfg.TempC, cfg.Interval)
	if err != nil {
		return nil, err
	}
	RegisterTrace(s, tr)
	for _, b := range batches {
		ReplayBatch(s, b)
	}
	if !final {
		finalAt = NoAdvance
	}
	s.Recompute(finalAt)
	return s, nil
}
