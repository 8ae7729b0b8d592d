// Package sim is the discrete-event LoRaWAN network simulator that
// replaces the paper's NS-3 setup: class-A nodes with retransmissions,
// a half-duplex multi-demodulator gateway, capture-based collision
// resolution, lazy per-node energy integration against the solar
// substrate, and the gateway-side degradation pipeline. Multi-year runs
// (the paper simulates up to 15 years) are the design target.
package sim

import (
	"repro/internal/simtime"
)

// Event is one schedulable action. Implementations that are pooled
// pointer types make Schedule allocation-free: storing a pointer (or a
// func value) in the interface does not allocate, and the engine's
// hand-rolled heap never boxes entries.
type Event interface {
	Fire()
}

// eventFunc adapts a plain closure to Event for callers that don't
// need pooling (tests, one-shot setup events).
type eventFunc func()

func (f eventFunc) Fire() { f() }

// entry is one queued event.
type entry struct {
	at  simtime.Time
	seq uint64 // schedule order, to break timestamp ties deterministically
	ev  Event
}

// Calendar-ring staging (DESIGN.md §5g). Most queued events are
// far-future timers — generate periods, window-deferred attempts,
// daily/obs ticks — that sit in the priority queue for simulated hours
// while every push and pop sifts past them. The engine therefore stages
// any event scheduled beyond the current minute in a ring of per-minute
// buckets and bulk-flushes a bucket into the heap only when the drain
// frontier reaches its minute. The heap holds just the sub-minute
// traffic (airtime ends, receive windows, backoffs) plus the flushed
// current minute, so its depth — and the cost of pop, the engine's
// dominant operation — stays O(log active-instant) instead of
// O(log everything-pending). Order is untouched: buckets are flushed
// wholesale before any of their instants can fire, and the heap alone
// decides execution order by the same strict (at, seq) total order, so
// the pop sequence is identical to a pure-heap engine, event for event.
const (
	// engineRingMinutes is the staging span: one bucket per simulated
	// minute, power of two. 2048 minutes (~34 h) covers every periodic
	// reschedule shape the simulator produces — sampling periods,
	// window deferrals, obs sampling, the recompute tick — with room to
	// spare; anything farther (monthly ticks, multi-day brownouts)
	// falls back to the heap, where rare events cost nothing extra.
	engineRingMinutes = 2048
	engineRingMask    = engineRingMinutes - 1
	engineMinute      = simtime.Time(simtime.Minute)
)

// Engine is a deterministic discrete-event executor. Events scheduled
// for the same instant run in schedule order — the (at, seq) contract —
// regardless of whether they are typed pooled events or closures.
// Engine is not safe for concurrent use.
type Engine struct {
	now      simtime.Time
	pq       []entry // 4-ary min-heap over (at, seq)
	seq      uint64
	executed uint64
	stop     bool

	// ring stages far-future events in per-minute buckets
	// (slot = minute & engineRingMask); nil until the first staged
	// event, so trivial engines never pay for it.
	ring [][]entry
	// ringSlab is the carve source for new buckets' initial capacity:
	// chunks are allocated on demand and sliced off per first-touched
	// bucket, so an engine pays for staging capacity proportional to the
	// minutes it actually stages into, not the whole ring span.
	ringSlab []entry
	// ringMin is the smallest minute index whose bucket may still hold
	// entries: buckets below it have been flushed, so late arrivals for
	// those minutes go straight to the heap.
	ringMin int64
	// ringNext is the minute of the earliest staged entry; only
	// meaningful while ringCount > 0.
	ringNext  int64
	ringCount int
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() simtime.Time { return e.now }

// Schedule enqueues fn at the given instant; past instants are clamped
// to now (the event still runs, immediately after current-time events).
func (e *Engine) Schedule(at simtime.Time, fn func()) {
	e.ScheduleEvent(at, eventFunc(fn))
}

// ScheduleAfter enqueues fn after the given delay.
func (e *Engine) ScheduleAfter(d simtime.Duration, fn func()) {
	e.Schedule(e.now.Add(d), fn)
}

// ScheduleEvent enqueues a typed event at the given instant under the
// same clamping and tie-break rules as Schedule. It performs no
// allocation beyond amortized heap/bucket growth. Events beyond the
// current minute are staged in the calendar ring; the rest go to the
// heap directly.
func (e *Engine) ScheduleEvent(at simtime.Time, ev Event) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	en := entry{at: at, seq: e.seq, ev: ev}
	m := int64(at / engineMinute)
	if nowMin := int64(e.now / engineMinute); m > nowMin {
		if e.ringCount == 0 && e.ringMin < nowMin {
			// Re-anchor an empty ring so a long heap-only stretch cannot
			// push the staging window out of reach.
			e.ringMin = nowMin
		}
		if m >= e.ringMin && m-e.ringMin < engineRingMinutes {
			e.ringPush(m, en)
			return
		}
	}
	e.push(en)
}

// engineRingBucketCap is the initial per-bucket capacity carved from the
// ring's backing slab. Staged wakes spread over the ring's minutes, so
// most buckets hold a handful of entries; buckets that outgrow their
// slab chunk fall back to ordinary append growth. engineRingChunkBuckets
// is how many buckets' worth of capacity one slab chunk provides: small
// engines (few staged minutes) allocate one ~32 KB chunk instead of the
// full 2048-bucket slab (~4 MB), while a fully exercised ring still
// settles at the same steady state in ~128 allocations, once, total.
const (
	engineRingBucketCap    = 64
	engineRingChunkBuckets = 16
)

// ringPush stages an entry in its minute bucket.
func (e *Engine) ringPush(m int64, en entry) {
	if e.ring == nil {
		e.ring = make([][]entry, engineRingMinutes)
	}
	slot := m & engineRingMask
	if e.ring[slot] == nil {
		// First touch of this slot: carve its initial capacity from the
		// current slab chunk (flushed buckets keep their capacity via
		// b[:0], so each slot carves at most once).
		if len(e.ringSlab) == 0 {
			e.ringSlab = make([]entry, engineRingChunkBuckets*engineRingBucketCap)
		}
		e.ring[slot] = e.ringSlab[0:0:engineRingBucketCap]
		e.ringSlab = e.ringSlab[engineRingBucketCap:]
	}
	e.ring[slot] = append(e.ring[slot], en)
	if e.ringCount == 0 || m < e.ringNext {
		e.ringNext = m
	}
	e.ringCount++
}

// ensureHead flushes staged buckets until the heap head is the true
// global minimum: while the earliest staged minute could precede the
// heap head, its whole bucket moves to the heap (which then orders the
// merged entries by (at, seq) exactly as a pure-heap engine would).
// Every head inspection — pop sites, NextAt — goes through here.
func (e *Engine) ensureHead() {
	for e.ringCount > 0 {
		if len(e.pq) > 0 && e.pq[0].at < simtime.Time(e.ringNext)*engineMinute {
			return
		}
		e.flushBucket()
	}
}

// flushBucket moves the earliest staged bucket into the heap and
// advances the ring frontier past it.
func (e *Engine) flushBucket() {
	slot := e.ringNext & engineRingMask
	b := e.ring[slot]
	for _, en := range b {
		e.push(en)
	}
	e.ringCount -= len(b)
	clear(b) // release Event references held by the retained capacity
	e.ring[slot] = b[:0]
	e.ringMin = e.ringNext + 1
	if e.ringCount == 0 {
		return
	}
	// The invariant that every staged minute lies in
	// [ringMin, ringMin+engineRingMinutes) bounds this scan.
	for m := e.ringMin; ; m++ {
		if len(e.ring[m&engineRingMask]) > 0 {
			e.ringNext = m
			return
		}
	}
}

// Stop makes Run return after the current event.
func (e *Engine) Stop() { e.stop = true }

// Pending returns the number of queued events (heap plus staged ring
// buckets).
func (e *Engine) Pending() int { return len(e.pq) + e.ringCount }

// Scheduled returns how many events were ever enqueued.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Executed returns how many events have fired.
func (e *Engine) Executed() uint64 { return e.executed }

// Step executes the next event; it reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	e.ensureHead()
	if len(e.pq) == 0 {
		return false
	}
	en := e.pop()
	e.now = en.at
	e.executed++
	en.ev.Fire()
	return true
}

// Run executes events until the queue drains, the horizon passes, or
// Stop is called. The clock ends at min(horizon, last event) — or at
// the horizon exactly if events remain beyond it.
func (e *Engine) Run(horizon simtime.Time) {
	e.stop = false
	for !e.stop {
		e.ensureHead()
		if len(e.pq) == 0 || e.pq[0].at > horizon {
			break
		}
		en := e.pop()
		e.now = en.at
		e.executed++
		en.ev.Fire()
	}
	if !e.stop && e.now < horizon {
		e.now = horizon
	}
}

// less orders the heap by (at, seq).
func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push and pop are a hand-rolled 4-ary heap: container/heap boxes
// every element into an interface, which alone accounted for one
// allocation per scheduled event, and the wider fan-out halves the
// sift-down depth of pop, the engine's dominant operation. The heap
// shape is irrelevant to determinism: (at, seq) is a strict total
// order, so any correct min-heap pops the exact same event sequence
// (TestEnginePopOrderMatchesReferenceHeap cross-checks against the
// previous binary layout).
// Both sifts move a hole instead of swapping: the displaced entry is
// held in a register and written exactly once at its final position,
// halving the entry copies per level.
func (e *Engine) push(en entry) {
	e.pq = append(e.pq, en)
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !en.less(e.pq[parent]) {
			break
		}
		e.pq[i] = e.pq[parent]
		i = parent
	}
	e.pq[i] = en
}

func (e *Engine) pop() entry {
	top := e.pq[0]
	last := len(e.pq) - 1
	en := e.pq[last]
	e.pq[last] = entry{} // release the Event for GC
	e.pq = e.pq[:last]
	if last == 0 {
		return top
	}
	// Sift the displaced tail entry down across up to four children per
	// level.
	i := 0
	for {
		first := i<<2 + 1
		if first >= last {
			break
		}
		least := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if e.pq[c].less(e.pq[least]) {
				least = c
			}
		}
		if !e.pq[least].less(en) {
			break
		}
		e.pq[i] = e.pq[least]
		i = least
	}
	e.pq[i] = en
	return top
}

// NextAt reports the timestamp of the earliest queued event, or false
// when the queue is empty. The sharded runner uses it to compute the
// conservative lookahead bound for each phase.
func (e *Engine) NextAt() (simtime.Time, bool) {
	e.ensureHead()
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].at, true
}

// RunUntil executes events strictly before limit, honoring a Stop()
// issued by an event (unlike Run it does not clear the flag, so a
// simulation-wide halt survives across phases). The clock is left at
// the last executed event: the next phase's events re-advance it, and
// an intermediate jump to limit-1ns would be observable through Now()
// in event handlers.
func (e *Engine) RunUntil(limit simtime.Time) {
	for !e.stop {
		e.ensureHead()
		if len(e.pq) == 0 || e.pq[0].at >= limit {
			return
		}
		en := e.pop()
		e.now = en.at
		e.executed++
		en.ev.Fire()
	}
}

// RunAt advances the clock to t and executes every event with at <= t,
// including same-instant cascades scheduled while draining (zero
// lookahead within one engine). Like RunUntil it honors Stop() without
// clearing it.
func (e *Engine) RunAt(t simtime.Time) {
	if e.now < t {
		e.now = t
	}
	for !e.stop {
		e.ensureHead()
		if len(e.pq) == 0 || e.pq[0].at > t {
			return
		}
		en := e.pop()
		e.now = en.at
		e.executed++
		en.ev.Fire()
	}
}

// Stopped reports whether Stop() has been called since the last Run.
func (e *Engine) Stopped() bool { return e.stop }
