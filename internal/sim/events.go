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

// simEvent is one pooled simulation event: it is allocated from the
// simulation's free list, scheduled into its engine, and returned to
// the free list on Fire. Packet-bearing events also capture the
// packet's generation counter so a packet recycled through the free
// list safely invalidates every event scheduled for its previous life
// (the determinism contract is unaffected: validity checks mirror the
// old finished/current-packet guards exactly).
type simEvent struct {
	s      *Simulation
	kind   uint8
	n      *Node
	pkt    *packet
	pktGen uint64
	tx     *Transmission
	gw     int
	until  simtime.Time
	next   *simEvent // free-list link
}

// Fire dispatches the event. The struct returns to the free list before
// the handler runs, so handlers may immediately reuse it when
// scheduling follow-up events.
func (e *simEvent) Fire() {
	s, kind, n, pkt, gen, tx, gw, until :=
		e.s, e.kind, e.n, e.pkt, e.pktGen, e.tx, e.gw, e.until
	e.n, e.pkt, e.tx = nil, nil, nil
	e.next = s.freeEv
	s.freeEv = e

	switch kind {
	case evGenerate:
		s.generate(n)
	case evAttempt:
		s.attempt(n, pkt, gen)
	case evTxEnd:
		s.txEnd(n, pkt, gen, tx)
	case evDownlink:
		s.med.BeginDownlink(gw, until)
	case evAckDone:
		s.ackDelivered(n, pkt, gen)
	case evRecompute:
		s.recomputeTick()
	case evMonthly:
		s.monthlyTick()
	case evBrownout:
		s.brownout(n)
	case evObsSample:
		s.obsSample()
	}
}

// schedule enqueues a pooled typed event; unused operands are zero.
func (s *Simulation) schedule(at simtime.Time, kind uint8, n *Node, pkt *packet, tx *Transmission, gw int, until simtime.Time) {
	e := s.freeEv
	if e == nil {
		// Refill the pool a chunk at a time: one slab instead of an
		// allocation per event while the pool grows to steady state.
		chunk := make([]simEvent, 64)
		for i := range chunk[1:] {
			chunk[i+1].s = s
			chunk[i+1].next = s.freeEv
			s.freeEv = &chunk[i+1]
		}
		e = &chunk[0]
		e.s = s
	} else {
		s.freeEv = e.next
		e.next = nil
	}
	e.kind, e.n, e.pkt, e.tx, e.gw, e.until = kind, n, pkt, tx, gw, until
	if pkt != nil {
		e.pktGen = pkt.gen
	}
	s.eng.ScheduleEvent(at, e)
}

// newPacket returns a recycled (or fresh) packet from the pool. The
// generation counter carries over from the previous life;
// releasePacket already bumped it, so stale events cannot match.
func (s *Simulation) newPacket() *packet {
	p := s.freePkt
	if p == nil {
		return &packet{}
	}
	s.freePkt = p.next
	p.next = nil
	p.attempts = 0
	p.radioEnergyJ = 0
	p.finished = false
	return p
}

// releasePacket invalidates outstanding events for this packet and
// returns it to the pool.
func (s *Simulation) releasePacket(p *packet) {
	p.gen++
	p.next = s.freePkt
	s.freePkt = p
}
