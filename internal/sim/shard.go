package sim

import (
	"repro/internal/energy"
	"repro/internal/lora"
	"repro/internal/radio"
	"repro/internal/runner"
	"repro/internal/simtime"
)

// The sharded simulator partitions the world into gateway cells and
// runs one event-engine lane per cell. Each lane owns an engine, a
// medium, and the event/packet free lists for the nodes homed there.
// A node is homed in the cell of its strongest gateway; a node whose
// signal is above sensitivity at gateways of two or more cells is a
// border node and is owned by a dedicated coordinator lane instead.
//
// Exactness rests on the medium's weak-signal short-circuit: a
// transmission below sensitivity at a gateway neither locks a
// demodulator, nor captures, nor is captured there, so registering an
// interior node's uplink only in its home cell's medium — where every
// gateway that could possibly hear it lives — is bit-equivalent to
// registering it in a global medium. Sensitivity tightens as SF rises,
// so a node inaudible at its final-attempt SF (the most sensitive one)
// is inaudible at every attempt's SF: the border classification is
// exact for the whole run, not a heuristic.
//
// The coordinator lane owns the global ticks (daily, monthly, obs
// sampling) and all border nodes. Worker lanes advance in parallel up
// to the conservative lookahead bound — the coordinator's next event
// time — then the coordinator drains that instant, including cascades,
// before the next phase. Per-lane (at, seq) order restricted to any
// one node reproduces the single-heap order, so shard count changes
// no byte of output.

// maskedDBm replaces a border node's received power at gateways outside
// a clone's cell: far below every SF's sensitivity, so the medium's
// weak-signal path ignores the pairing entirely.
const maskedDBm = -1e9

// RunOptions selects the execution strategy for one run. The options
// affect scheduling only — results and observability exports are
// byte-identical at any setting.
type RunOptions struct {
	// Shards is the number of per-cell event-engine lanes; 0 picks
	// min(gateways, resolved workers) and 1 forces the legacy
	// single-heap engine. The effective count never exceeds the
	// gateway count, and runs with per-packet hooks (OnDecision,
	// OnPacketDone) fall back to one shard because hook code runs on
	// worker goroutines otherwise.
	Shards int
	// Workers caps the goroutines driving shard phases; 0 means
	// GOMAXPROCS.
	Workers int
}

// shard is one event-engine lane: a worker lane owns a cell's engine,
// medium, and pools; the coordinator lane owns an engine and pools but
// no medium (border transmissions register clones in the worker
// media).
type shard struct {
	s       *Simulation
	eng     *Engine
	med     *Medium
	db      *energy.DayBase // per-lane batch cache of the trace's day base powers
	freeEv  *simEvent
	freePkt *packet
	freeBtx *borderTx
}

// borderTx tracks one border node's in-flight uplink: one masked clone
// per cell that can hear it, indexed by worker lane. Pooled on the
// coordinator (the only lane that transmits border uplinks).
type borderTx struct {
	clones []*Transmission
	next   *borderTx
}

func (sh *shard) newBorderTx(lanes int) *borderTx {
	b := sh.freeBtx
	if b == nil {
		return &borderTx{clones: make([]*Transmission, lanes)}
	}
	sh.freeBtx = b.next
	b.next = nil
	return b
}

func (sh *shard) releaseBorderTx(b *borderTx) {
	clear(b.clones)
	b.next = sh.freeBtx
	sh.freeBtx = b
}

// resolveShards maps the requested shard count to the effective one.
func (s *Simulation) resolveShards(opt RunOptions) int {
	eff := opt.Shards
	if eff <= 0 {
		eff = runner.Workers(opt.Workers)
	}
	if eff > s.cfg.Gateways {
		eff = s.cfg.Gateways
	}
	if s.hooks.OnDecision != nil || s.hooks.OnPacketDone != nil {
		eff = 1
	}
	if eff < 1 {
		eff = 1
	}
	return eff
}

// setupLanes builds the lane set for one run. With one shard the
// single lane is both worker and coordinator and reuses the medium
// built in New — the run is then literally the legacy single-heap
// execution. With more, each cell gets its own medium (sharing the
// observer's counters, which are atomic) and the coordinator gets a
// bare lane for global ticks and border nodes.
func (s *Simulation) setupLanes(shardCount int) {
	if shardCount <= 1 {
		ln := &shard{s: s, eng: NewEngine(), med: s.med, db: s.trace.NewDayBase()}
		s.shards = []*shard{ln}
		s.coord = ln
		s.lanes = []*shard{ln}
		s.gwShard = nil
		for _, n := range s.nodes {
			n.owner = ln
			n.borderPow = nil
			n.attachDayBase()
		}
		s.shardsUsed = 1
		return
	}
	cfg := s.cfg
	s.shards = make([]*shard, shardCount)
	for i := range s.shards {
		med := NewMedium(lora.BW125, cfg.Demodulators, cfg.Gateways)
		med.SetObserver(s.obs)
		s.shards[i] = &shard{s: s, eng: NewEngine(), med: med, db: s.trace.NewDayBase()}
	}
	s.coord = &shard{s: s, eng: NewEngine(), db: s.trace.NewDayBase()}
	s.lanes = append(append(make([]*shard, 0, shardCount+1), s.shards...), s.coord)
	// Cells are contiguous blocks along the gateway ring, so adjacent
	// gateways (the ones whose coverage overlaps most) share a shard.
	s.gwShard = make([]int, cfg.Gateways)
	for g := range s.gwShard {
		s.gwShard[g] = g * shardCount / cfg.Gateways
	}
	s.shardsUsed = shardCount
	for _, n := range s.nodes {
		s.assignNode(n)
		n.attachDayBase()
	}
}

// attachDayBase points the node's solar source at its owner lane's
// shared day-base cache, so per-day harvest-cache fills batch the
// year-adjusted base powers across all nodes of the lane sharing the
// weather trace. The fill is bit-identical with or without the cache
// (energy.DayBase); the instances are per-lane only because worker
// lanes advance on separate goroutines. A non-solar source (tests)
// simply lacks the method. The trace can be nil for bare Simulations
// assembled by tests; those nodes keep per-node fills.
func (n *Node) attachDayBase() {
	if n.owner == nil || n.owner.db == nil {
		return
	}
	if ds, ok := n.src.(interface{ SetDayBase(*energy.DayBase) }); ok {
		ds.SetDayBase(n.owner.db)
	}
}

// assignNode homes a node in the cell of its strongest gateway, or on
// the coordinator when it is audible in two or more cells. Audibility
// is judged at the node's final-attempt SF — the most sensitive one —
// which makes the interior classification exact for every attempt.
func (s *Simulation) assignNode(n *Node) {
	maxSF := n.ParamsForAttempt(s.cfg.MaxAttempts - 1).SF
	sens := lora.Sensitivity(maxSF, lora.BW125)
	first, multi := -1, false
	for g, rx := range n.RxPowerDBm {
		if rx < sens {
			continue
		}
		t := s.gwShard[g]
		if first == -1 {
			first = t
		} else if t != first {
			multi = true
			break
		}
	}
	if !multi {
		// Audible in at most one cell (possibly none: then any lane is
		// exact — nothing ever hears the node).
		n.owner = s.shards[s.gwShard[radio.StrongestGateway(n.RxPowerDBm)]]
		n.borderPow = nil
		return
	}
	n.owner = s.coord
	pow := make([][]float64, len(s.shards))
	for g, rx := range n.RxPowerDBm {
		if rx < sens || pow[s.gwShard[g]] != nil {
			continue
		}
		t := s.gwShard[g]
		m := make([]float64, len(n.RxPowerDBm))
		for gg, rr := range n.RxPowerDBm {
			if s.gwShard[gg] == t {
				m[gg] = rr
			} else {
				m[gg] = maskedDBm
			}
		}
		pow[t] = m
	}
	n.borderPow = pow
}

// laneForGW returns the worker lane owning a gateway's radio state.
func (s *Simulation) laneForGW(gw int) *shard {
	if s.gwShard == nil {
		return s.shards[0]
	}
	return s.shards[s.gwShard[gw]]
}

// halt stops every lane; the run's clock freezes at the stopping
// event's instant, matching the legacy engine's Stop semantics.
func (s *Simulation) halt(at simtime.Time) {
	s.stopped = true
	s.stopAt = at
	for _, ln := range s.lanes {
		ln.eng.Stop()
	}
}

// runSharded drives the lanes with conservative lookahead: worker
// lanes run in parallel strictly up to the coordinator's next event
// time, then the coordinator drains that instant (border-node chains,
// global ticks, and their same-instant cascades) alone. Any event the
// coordinator schedules into a worker lane is strictly in the future,
// so the next phase picks it up; any event a worker schedules lives in
// its own lane. The barrier makes all cross-lane pool and state
// touches happen-before ordered.
func (s *Simulation) runSharded(horizon simtime.Time, workers int) {
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	pool := runner.NewPool(workers)
	defer pool.Close()
	runnable := make([]*shard, 0, len(s.shards))
	for !s.stopped {
		limit := horizon + 1
		tC, ok := s.coord.eng.NextAt()
		if ok && tC <= horizon {
			limit = tC
		}
		runnable = runnable[:0]
		for _, sh := range s.shards {
			if t, ok2 := sh.eng.NextAt(); ok2 && t < limit {
				runnable = append(runnable, sh)
			}
		}
		if len(runnable) > 0 {
			rs := runnable
			pool.Run(len(rs), func(i int) { rs[i].eng.RunUntil(limit) })
		}
		if !ok || tC > horizon {
			return
		}
		s.coord.eng.RunAt(tC)
	}
}

// beginBorderUplink registers one masked clone of a border node's
// uplink in every cell that can hear it and counts the uplink once.
func (sh *shard) beginBorderUplink(n *Node, ch int, sf lora.SpreadingFactor, start, end simtime.Time) *borderTx {
	s := sh.s
	btx := sh.newBorderTx(len(s.shards))
	for t, pow := range n.borderPow {
		if pow == nil {
			continue
		}
		med := s.shards[t].med
		tx := med.NewTransmission()
		tx.NodeID = n.ID
		tx.Channel = ch
		tx.SF = sf
		tx.PowerDBm = pow
		tx.Start = start
		tx.End = end
		med.BeginUplinkPart(tx)
		btx.clones[t] = tx
	}
	s.shards[0].med.CountUplink()
	return btx
}

// endBorderUplink resolves a border node's uplink: each clone reports
// its cell's decoding gateways and loss flags, the merged set is
// ordered exactly as the global medium's insertion sort would order it
// (power descending, ties toward the lower gateway index), and the
// outcome is classified once.
func (sh *shard) endBorderUplink(n *Node, btx *borderTx) []int {
	s := sh.s
	buf := s.borderDecoded[:0]
	var anyCorrupted, anyUnlocked bool
	for t, tx := range btx.clones {
		if tx == nil {
			continue
		}
		var c, u bool
		buf, c, u = s.shards[t].med.EndUplinkPart(tx, buf)
		anyCorrupted = anyCorrupted || c
		anyUnlocked = anyUnlocked || u
	}
	sortDecodedByPower(buf, n.RxPowerDBm)
	s.borderDecoded = buf
	s.shards[0].med.CountUplinkOutcome(len(buf), anyCorrupted, anyUnlocked)
	sh.releaseBorderTx(btx)
	return buf
}

// sortDecodedByPower orders merged decode results by power descending
// with ties toward the lower gateway index — the unique total order the
// global medium's stable insertion sort (over an ascending-index
// initial order) produces, so border uplinks pick the same ACK gateway
// as the single-medium engine.
func sortDecodedByPower(buf []int, pow []float64) {
	for i := 1; i < len(buf); i++ {
		g := buf[i]
		j := i - 1
		for j >= 0 && (pow[buf[j]] < pow[g] || (pow[buf[j]] == pow[g] && buf[j] > g)) {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = g
	}
}
