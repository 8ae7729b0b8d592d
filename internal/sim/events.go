package sim

import "repro/internal/simtime"

// Simulation event kinds. Each maps to one protocol action; together
// they replace the closure-per-Schedule hot path with pooled structs.
const (
	evGenerate  uint8 = iota // node timer: generate the next packet
	evAttempt                // transmission attempt (first, deferred, or retry)
	evTxEnd                  // uplink airtime over: resolve reception
	evDownlink               // gateway starts the reserved ACK downlink
	evAckDone                // receive window closes with the ACK decoded
	evRecompute              // gateway degradation recomputation tick
	evMonthly                // monthly degradation sampling tick
	evBrownout               // fault injection: node restart losing volatile state
	evObsSample              // observability: sample every node's timeline row
)

// simEvent is one pooled simulation event, owned by exactly one shard
// lane: it is allocated from that lane's free list, scheduled into that
// lane's engine, and returned to the same free list on Fire, so the
// generation-counted pools never cross shard boundaries. Packet-bearing
// events also capture the packet's generation counter so a packet
// recycled through the free list safely invalidates every event
// scheduled for its previous life (the determinism contract is
// unaffected: validity checks mirror the old finished/current-packet
// guards exactly).
type simEvent struct {
	sh     *shard
	kind   uint8
	n      *Node
	pkt    *packet
	pktGen uint64
	tx     *Transmission
	btx    *borderTx
	gw     int
	until  simtime.Time
	next   *simEvent // free-list link
}

// Fire dispatches the event. The struct returns to its lane's free
// list before the handler runs, so handlers may immediately reuse it
// when scheduling follow-up events.
func (e *simEvent) Fire() {
	sh, kind, n, pkt, gen, tx, btx, gw, until :=
		e.sh, e.kind, e.n, e.pkt, e.pktGen, e.tx, e.btx, e.gw, e.until
	e.n, e.pkt, e.tx, e.btx = nil, nil, nil, nil
	e.next = sh.freeEv
	sh.freeEv = e

	switch kind {
	case evGenerate:
		sh.generate(n)
	case evAttempt:
		sh.attempt(n, pkt, gen)
	case evTxEnd:
		sh.txEnd(n, pkt, gen, tx, btx)
	case evDownlink:
		sh.med.BeginDownlink(gw, until)
	case evAckDone:
		sh.ackDelivered(n, pkt, gen)
	case evRecompute:
		sh.recomputeTick()
	case evMonthly:
		sh.monthlyTick()
	case evBrownout:
		sh.brownout(n)
	case evObsSample:
		sh.obsSample()
	}
}

// schedule enqueues a pooled typed event into this lane's engine;
// unused operands are zero. Cross-lane scheduling (the coordinator
// queuing a downlink into a gateway's lane) calls this on the target
// lane, which is safe because the coordinator only runs while worker
// lanes are parked at a barrier.
func (sh *shard) schedule(at simtime.Time, kind uint8, n *Node, pkt *packet, tx *Transmission, btx *borderTx, gw int, until simtime.Time) {
	e := sh.freeEv
	if e == nil {
		// Refill the pool a chunk at a time: one slab instead of an
		// allocation per event while the pool grows to steady state.
		chunk := make([]simEvent, 64)
		for i := range chunk[1:] {
			chunk[i+1].sh = sh
			chunk[i+1].next = sh.freeEv
			sh.freeEv = &chunk[i+1]
		}
		e = &chunk[0]
		e.sh = sh
	} else {
		sh.freeEv = e.next
		e.next = nil
	}
	e.kind, e.n, e.pkt, e.tx, e.btx, e.gw, e.until = kind, n, pkt, tx, btx, gw, until
	if pkt != nil {
		e.pktGen = pkt.gen
	}
	sh.eng.ScheduleEvent(at, e)
}

// newPacket returns a recycled (or fresh) packet from this lane's pool.
// The generation counter carries over from the previous life;
// releasePacket already bumped it, so stale events cannot match. A
// node's packets are always allocated and released by its owner lane
// (packet lifecycle events run on the owner), so the pools stay
// shard-local.
func (sh *shard) newPacket() *packet {
	p := sh.freePkt
	if p == nil {
		return &packet{}
	}
	sh.freePkt = p.next
	p.next = nil
	p.attempts = 0
	p.radioEnergyJ = 0
	p.finished = false
	return p
}

// releasePacket invalidates outstanding events for this packet and
// returns it to this lane's pool.
func (sh *shard) releasePacket(p *packet) {
	p.gen++
	p.next = sh.freePkt
	sh.freePkt = p
}
