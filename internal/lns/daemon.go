package lns

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/battery"
	"repro/internal/netserver"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Config parameterizes a daemon. The zero value selects the paper's
// operating point: the default degradation model at 25 C with daily
// recomputes on a single shard (a TempC of exactly 0 is read as
// "unset"; pass a model explicitly for sub-zero deployments).
type Config struct {
	Model    battery.Model
	TempC    float64
	Interval simtime.Duration
	// Shards is the number of node-ID-range shards, each a private
	// netserver.Server behind its own worker goroutine and bounded
	// queue (see ShardOf for the node→shard map). 1 (the default) is
	// the single-lane degenerate case — and the determinism oracle the
	// multi-shard paths are diffed against.
	Shards int
	// QueueDepth bounds each shard's ingest lane: how many
	// accepted-but-unapplied batches may pile up before POST
	// /v1/uplinks starts answering 429.
	QueueDepth int
	// RetryAfter is the back-off hint sent with a 429.
	RetryAfter time.Duration
	// Logf sinks response-write failures and other non-fatal handler
	// errors (default log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Model == (battery.Model{}) {
		c.Model = battery.DefaultModel()
	}
	if c.TempC == 0 {
		c.TempC = 25
	}
	if c.Interval <= 0 {
		c.Interval = simtime.Day
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// job is one entry of a shard's ingest lane: either a batch of uplinks
// routed to this shard or a control closure (registration, barrier
// phase, snapshot, ...). Control jobs ride the same FIFO as ingest
// jobs, so they observe a shard state that reflects every batch
// accepted before them — that ordering is what makes GET /v1/wu and
// GET /v1/snapshot consistent without any locking on the Servers
// themselves.
type job struct {
	uplinks []Uplink
	ctl     func(s *netserver.Server)
	done    chan struct{}
}

// shard is one node-ID-range partition: a private server owned by one
// worker goroutine, fed through a bounded queue. Nothing but that
// worker ever touches srv (control ops run as closures ON the worker),
// so the server needs no locks and per-node ordering holds by
// construction — one node, one lane.
type shard struct {
	srv  *netserver.Server
	q    chan job
	done chan struct{}

	cUplinks *obs.Counter
	gQueue   *obs.Gauge
}

// Daemon is the LNS service core: N netserver.Server sub-fleets, each
// owned by a shard worker goroutine. HTTP ingest routes each uplink to
// its shard by node-ID range and never blocks (full lane →
// backpressure); control ops fan out to every shard behind a barrier
// and merge results deterministically, so the w_u table and snapshot
// bytes are identical at any shard count.
type Daemon struct {
	cfg    Config
	rec    *obs.Recorder
	shards []*shard

	// ctlMu serializes control operations. Each op enqueues one ctl job
	// per shard; two ops doing so concurrently could interleave their
	// jobs in different orders on different lanes and deadlock the
	// barrier handshake. Ingest never takes it.
	ctlMu sync.Mutex

	cBatches, cBatchesRejected, cUplinks *obs.Counter
	cIngestNs, cRecomputeNs, cRecomputes *obs.Counter
	gQueueDepth, gRecomputeLastMs        *obs.Gauge
}

// NewDaemon starts a daemon (its shard workers run until Close).
// The recorder is created internally; read it via Recorder.
func NewDaemon(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	rec := obs.New(obs.Manifest{Tool: "lnsd", Experiment: "lns"}, 0)
	d := &Daemon{
		cfg:              cfg,
		rec:              rec,
		shards:           make([]*shard, cfg.Shards),
		cBatches:         rec.Counter("lns.batches_applied"),
		cBatchesRejected: rec.Counter("lns.batches_rejected"),
		cUplinks:         rec.Counter("lns.uplinks_applied"),
		cIngestNs:        rec.Counter("lns.ingest_ns_total"),
		cRecomputeNs:     rec.Counter("lns.recompute_ns_total"),
		cRecomputes:      rec.Counter("lns.recomputes"),
		gQueueDepth:      rec.Gauge("lns.queue_depth"),
		gRecomputeLastMs: rec.Gauge("lns.recompute_last_ms"),
	}
	for i := range d.shards {
		srv, err := netserver.New(cfg.Model, cfg.TempC, cfg.Interval)
		if err != nil {
			return nil, err
		}
		srv.SetObserver(rec)
		sh := &shard{
			srv:      srv,
			q:        make(chan job, cfg.QueueDepth),
			done:     make(chan struct{}),
			cUplinks: rec.Counter(fmt.Sprintf("lns.shard%d.uplinks_applied", i)),
			gQueue:   rec.Gauge(fmt.Sprintf("lns.shard%d.queue_depth", i)),
		}
		d.shards[i] = sh
		go d.worker(sh)
	}
	return d, nil
}

// Close drains the queues and stops the workers. The HTTP server
// feeding the daemon must be shut down first; enqueuing after Close
// panics.
func (d *Daemon) Close() {
	for _, sh := range d.shards {
		close(sh.q)
	}
	for _, sh := range d.shards {
		<-sh.done
	}
}

// Recorder exposes the daemon's metrics (obs counters/gauges).
func (d *Daemon) Recorder() *obs.Recorder { return d.rec }

func (d *Daemon) worker(sh *shard) {
	defer close(sh.done)
	for j := range sh.q {
		sh.gQueue.Set(float64(len(sh.q)))
		d.gQueueDepth.Set(float64(d.queued()))
		if j.ctl != nil {
			j.ctl(sh.srv)
			close(j.done)
			continue
		}
		start := time.Now()
		ReplayBatch(sh.srv, Batch{Uplinks: j.uplinks})
		d.cIngestNs.Add(time.Since(start).Nanoseconds())
		d.cBatches.Inc()
		d.cUplinks.Add(int64(len(j.uplinks)))
		sh.cUplinks.Add(int64(len(j.uplinks)))
	}
}

// queued counts jobs sitting in all shard lanes (racy snapshot, gauge
// use only).
func (d *Daemon) queued() int {
	n := 0
	for _, sh := range d.shards {
		n += len(sh.q)
	}
	return n
}

func (d *Daemon) noteRecompute(wall time.Duration) {
	d.cRecomputeNs.Add(wall.Nanoseconds())
	d.cRecomputes.Inc()
	d.gRecomputeLastMs.Set(float64(wall.Nanoseconds()) / 1e6)
}

// fanout runs fn(i, shard i's server) on every shard worker, after
// everything queued before it on each lane, and returns when all
// shards finished. Caller must hold ctlMu. The jobs are all enqueued
// before any completion is awaited, so the shards drain in parallel.
func (d *Daemon) fanout(fn func(i int, s *netserver.Server)) {
	dones := make([]chan struct{}, len(d.shards))
	for i, sh := range d.shards {
		i := i
		dones[i] = make(chan struct{})
		sh.q <- job{ctl: func(s *netserver.Server) { fn(i, s) }, done: dones[i]}
	}
	for _, done := range dones {
		<-done
	}
}

// do runs fn once on every shard worker, blocking until all ran — the
// test hook for stalling the lanes.
func (d *Daemon) do(fn func()) {
	d.ctlMu.Lock()
	defer d.ctlMu.Unlock()
	d.fanout(func(int, *netserver.Server) { fn() })
}

// barrier quiesces every shard behind its ingest lane and runs one
// deterministic fleet-wide recompute in three phases:
//
//  1. each shard folds `advance` into its clock (NoAdvance folds
//     nothing) and reports it; the coordinator merges the clocks
//     (max — exactly how AdvanceClock itself folds instants) and
//     derives the grid slot;
//  2. each shard evaluates its nodes' degradation at that one slot and
//     reports its local maximum; the coordinator merges them into the
//     fleet D_max;
//  3. each shard requantizes w_u against the fleet D_max, then runs
//     `collect` on its quiesced server before resuming ingest.
//
// Every shard computes at the same grid slot and normalizes by the
// same D_max, so the merged results are identical to a 1-shard server
// that ingested the union — at any shard count. Returns the per-shard
// collect results, whether any degradation pass actually ran, and the
// wall time of phases 2–3 (the recompute cost, excluding queue drain).
func (d *Daemon) barrier(advance simtime.Time, collect func(s *netserver.Server) any) (results []any, ran bool, wall time.Duration) {
	d.ctlMu.Lock()
	defer d.ctlMu.Unlock()
	n := len(d.shards)
	results = make([]any, n)
	clocks := make([]simtime.Time, n)
	dmaxs := make([]float64, n)
	rans := make([]bool, n)

	var slot simtime.Time
	var dmax float64
	slotReady := make(chan struct{})
	dmaxReady := make(chan struct{})
	var wgClock, wgDegr sync.WaitGroup
	wgClock.Add(n)
	wgDegr.Add(n)

	dones := make([]chan struct{}, n)
	for i, sh := range d.shards {
		i := i
		dones[i] = make(chan struct{})
		sh.q <- job{done: dones[i], ctl: func(s *netserver.Server) {
			s.AdvanceClock(advance)
			clocks[i] = s.Clock()
			wgClock.Done()
			<-slotReady
			dmaxs[i], rans[i] = s.RecomputeDegrAt(slot)
			wgDegr.Done()
			<-dmaxReady
			s.ApplyWu(dmax)
			if collect != nil {
				results[i] = collect(s)
			}
		}}
	}

	wgClock.Wait()
	maxClock := clocks[0]
	for _, c := range clocks[1:] {
		if c > maxClock {
			maxClock = c
		}
	}
	slot = netserver.GridInstant(maxClock, d.cfg.Interval)
	start := time.Now()
	close(slotReady)

	wgDegr.Wait()
	for i := range dmaxs {
		if dmaxs[i] > dmax {
			dmax = dmaxs[i]
		}
		ran = ran || rans[i]
	}
	close(dmaxReady)

	for _, done := range dones {
		<-done
	}
	return results, ran, time.Since(start)
}

// tryEnqueue routes a batch's uplinks to their shards and offers each
// non-empty sub-batch to its lane without blocking; false means at
// least one lane is full (the recompute side fell behind) and the
// caller must back off. A partial acceptance is safe: the client
// retries the whole batch, and the per-node watermarks drop the
// sub-batches that already landed — the same idempotence that absorbs
// network-level duplicates.
func (d *Daemon) tryEnqueue(uplinks []Uplink) bool {
	if len(d.shards) == 1 {
		return d.offer(d.shards[0], uplinks)
	}
	parts := make([][]Uplink, len(d.shards))
	for _, u := range uplinks {
		i := ShardOf(u.Node, len(d.shards))
		parts[i] = append(parts[i], u)
	}
	ok := true
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		if !d.offer(d.shards[i], part) {
			ok = false
		}
	}
	return ok
}

func (d *Daemon) offer(sh *shard, uplinks []Uplink) bool {
	select {
	case sh.q <- job{uplinks: uplinks}:
		sh.gQueue.Set(float64(len(sh.q)))
		d.gQueueDepth.Set(float64(d.queued()))
		return true
	default:
		d.cBatchesRejected.Inc()
		return false
	}
}

// RegisterAll applies registrations on each owning shard's worker,
// preserving the request order within every shard.
func (d *Daemon) RegisterAll(nodes []RegisterNode) {
	groups := make([][]RegisterNode, len(d.shards))
	for _, n := range nodes {
		i := ShardOf(n.Node, len(d.shards))
		groups[i] = append(groups[i], n)
	}
	d.ctlMu.Lock()
	defer d.ctlMu.Unlock()
	d.fanout(func(i int, s *netserver.Server) {
		for _, n := range groups[i] {
			if n.Rejoin {
				s.Rejoin(n.Node, n.SoC)
			} else {
				s.Register(n.Node, n.SoC)
			}
		}
	})
}

// RecomputeAt runs a barrier recompute with the virtual clock advanced
// to (at least) the given instant, timing the degradation pass like
// the metrics expect. It reports whether the pass ran (false when the
// fleet was already clean at the same grid slot).
func (d *Daemon) RecomputeAt(at simtime.Time) bool {
	_, ran, wall := d.barrier(at, nil)
	if ran {
		d.noteRecompute(wall)
	}
	return ran
}

// WuTable returns the disseminated w_u table, consistent with every
// batch accepted before the call: a barrier recompute brings every
// shard to the same grid slot and fleet D_max, then the per-shard
// tables merge in ascending node order.
func (d *Daemon) WuTable() []netserver.NodeWu {
	results, ran, wall := d.barrier(NoAdvance, func(s *netserver.Server) any { return s.WuTable() })
	if ran {
		d.noteRecompute(wall)
	}
	parts := make([][]netserver.NodeWu, len(results))
	for i, r := range results {
		parts[i] = r.([]netserver.NodeWu)
	}
	return netserver.MergeWuTables(parts)
}

// SnapshotState captures the full fleet state, consistent with every
// batch accepted before the call. Like WuTable it barriers first, so
// every shard's degradation and w_u are evaluated at the same grid slot
// and fleet D_max, and the merged bytes match the 1-shard (and
// library-path) snapshot exactly.
func (d *Daemon) SnapshotState() (*netserver.Snapshot, error) {
	results, ran, wall := d.barrier(NoAdvance, func(s *netserver.Server) any { return s.Snapshot() })
	if ran {
		d.noteRecompute(wall)
	}
	parts := make([]*netserver.Snapshot, len(results))
	for i, r := range results {
		parts[i] = r.(*netserver.Snapshot)
	}
	return netserver.MergeSnapshots(parts)
}

// RestoreState replaces the fleet with one rebuilt from a snapshot,
// split across the shards by the same node→shard map ingest routes
// with. The per-shard servers are fully built and validated BEFORE any
// worker swaps, so a bad snapshot leaves the running state untouched.
func (d *Daemon) RestoreState(snap *netserver.Snapshot) error {
	parts := netserver.SplitSnapshot(snap, len(d.shards), func(nodeID int) int {
		return ShardOf(nodeID, len(d.shards))
	})
	srvs := make([]*netserver.Server, len(parts))
	for i, part := range parts {
		srv, err := netserver.Restore(part)
		if err != nil {
			return err
		}
		srv.SetObserver(d.rec)
		srvs[i] = srv
	}
	d.ctlMu.Lock()
	defer d.ctlMu.Unlock()
	d.fanout(func(i int, _ *netserver.Server) {
		d.shards[i].srv = srvs[i]
	})
	return nil
}

// maxBodyBytes bounds request bodies; a batch of 4096 uplinks with full
// payloads stays far below it.
const maxBodyBytes = 64 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON encodes the response body; an encode/write failure (a
// client gone mid-response, a marshal bug) is logged instead of
// silently dropped — the status line already went out, so logging is
// all that is left to do.
func (d *Daemon) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		d.cfg.Logf("lns: write %d response: %v", status, err)
	}
}

// retryAfterSeconds renders the backoff hint as whole seconds for the
// Retry-After header, rounding UP: the advertised wait must never be
// shorter than the configured one (1500ms must say "2" — truncating to
// "1" invites clients back early, defeating the backpressure).
func retryAfterSeconds(d time.Duration) int {
	s := (d + time.Second - 1) / time.Second
	if s < 1 {
		return 1
	}
	return int(s)
}

// Handler returns the daemon's HTTP API:
//
//	GET  /healthz      liveness
//	GET  /v1/metrics   obs counters/gauges as CSV (incl. per-shard)
//	POST /v1/register  {"nodes":[{"node":0,"soc":0.9,"rejoin":false},...]}
//	POST /v1/uplinks   {"uplinks":[{"node":0,"at_ms":...,"window_ms":...,"reports":[{"ago":0,"soc_q":...}]}]}
//	                   202 queued; 429 + Retry-After when an ingest
//	                   lane is full (backpressure contract)
//	POST /v1/recompute {"at_ms":...} -> {"ran":bool}
//	GET  /v1/wu        disseminated w_u table (deterministic JSON)
//	GET  /v1/snapshot  full fleet state (merged across shards)
//	POST /v1/restore   body of /v1/snapshot
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		d.rec.WriteCountersCSV(w)
	})
	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterReq
		if !decodeBody(w, r, &req) {
			return
		}
		d.RegisterAll(req.Nodes)
		d.writeJSON(w, http.StatusOK, map[string]int{"registered": len(req.Nodes)})
	})
	mux.HandleFunc("POST /v1/uplinks", func(w http.ResponseWriter, r *http.Request) {
		var b Batch
		if !decodeBody(w, r, &b) {
			return
		}
		// An empty batch is a no-op, not work: acknowledging it without
		// enqueuing keeps batches_applied and ingest_ns_total meaning
		// "batches that carried uplinks" (and keeps a keep-alive poster
		// from filling the lanes with nothing).
		if len(b.Uplinks) == 0 {
			d.writeJSON(w, http.StatusAccepted, IngestResp{Queued: 0})
			return
		}
		if !d.tryEnqueue(b.Uplinks) {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(d.cfg.RetryAfter)))
			http.Error(w, "ingest lane full, retry later", http.StatusTooManyRequests)
			return
		}
		d.writeJSON(w, http.StatusAccepted, IngestResp{Queued: len(b.Uplinks)})
	})
	mux.HandleFunc("POST /v1/recompute", func(w http.ResponseWriter, r *http.Request) {
		var req RecomputeReq
		if !decodeBody(w, r, &req) {
			return
		}
		d.writeJSON(w, http.StatusOK, RecomputeResp{Ran: d.RecomputeAt(simtime.Time(req.AtMs))})
	})
	mux.HandleFunc("GET /v1/wu", func(w http.ResponseWriter, r *http.Request) {
		table := d.WuTable()
		w.Header().Set("Content-Type", "application/json")
		if err := WriteWuTable(w, table); err != nil {
			d.cfg.Logf("lns: write wu table: %v", err)
		}
	})
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		snap, err := d.SnapshotState()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		d.writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("POST /v1/restore", func(w http.ResponseWriter, r *http.Request) {
		var snap netserver.Snapshot
		if !decodeBody(w, r, &snap) {
			return
		}
		if err := d.RestoreState(&snap); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		d.writeJSON(w, http.StatusOK, map[string]int{"nodes": len(snap.Nodes)})
	})
	return mux
}
