package battery

// Snapshot/restore of the incremental degradation state. The network
// server daemon (cmd/lnsd) persists per-node Tracker state across
// restarts; the contract is exactness, not compactness: a restored
// tracker must answer every subsequent Damage query with the same bits
// an uninterrupted tracker would, for any continuation of the SoC
// stream. That holds because the snapshot carries the exact closed-cycle
// float aggregates (not the cycle list they were folded from) and the
// complete residue-stack state the pending-cycle walk derives from;
// everything else the tracker holds (stress cache, memos, scratch) is a
// pure function of the model constants or rebuilt lazily.
//
// The types marshal cleanly with encoding/json: Go's float64 JSON
// round-trip is exact (shortest-representation formatting), so a
// snapshot that passed through a JSON file restores bit-identically.

// CounterSnapshot is the serializable state of an incremental rainflow
// Counter: the residue stack of confirmed turning points plus the
// provisional extremum and run direction. Scratch buffers and the
// revision counter are deliberately absent — they are rebuilt on
// restore.
type CounterSnapshot struct {
	// Stack is the residue stack of confirmed turning points, oldest
	// first.
	Stack []float64 `json:"stack,omitempty"`
	// Last is the most recent sample (the provisional extremum).
	Last float64 `json:"last"`
	// Dir is the current run direction: +1 rising, -1 falling, 0 before
	// the second distinct sample.
	Dir int `json:"dir"`
	// N is the number of raw samples pushed.
	N int `json:"n"`
}

// Snapshot captures the counter's serializable state. The returned
// snapshot owns its stack copy; later pushes do not mutate it.
func (c *Counter) Snapshot() CounterSnapshot {
	var stack []float64
	if len(c.stack) > 0 {
		stack = append(stack, c.stack...)
	}
	return CounterSnapshot{Stack: stack, Last: c.last, Dir: c.dir, N: c.n}
}

// RestoreSnapshot overwrites the counter's stream state with a snapshot,
// keeping the OnCycle callback. Both revisions are bumped so any memo
// keyed on them is invalidated; scratch buffers reset lazily on the next
// use.
func (c *Counter) RestoreSnapshot(s CounterSnapshot) {
	c.stack = append(c.stack[:0], s.Stack...)
	c.last = s.Last
	c.dir = s.Dir
	c.n = s.N
	c.rev++
	c.stackRev++
}

// TrackerSnapshot is the serializable state of a Tracker: the retired
// cycle aggregates plus the live counter state. The model constants and
// battery temperature are configuration, not state — the restorer
// supplies them (RestoreTracker), and the caller is responsible for
// passing the same values the snapshot was taken under; the degradation
// bits are only reproducible against the original model.
type TrackerSnapshot struct {
	// ClosedRaw is the sum of eta*delta*phi over retired cycles.
	ClosedRaw float64 `json:"closed_raw"`
	// ClosedPhiSum is the sum of eta*phi over retired cycles.
	ClosedPhiSum float64 `json:"closed_phi_sum"`
	// ClosedWeight is the sum of eta over retired cycles.
	ClosedWeight float64 `json:"closed_weight"`
	// Counter is the incremental rainflow state.
	Counter CounterSnapshot `json:"counter"`
}

// Snapshot captures the tracker's serializable state.
func (t *Tracker) Snapshot() TrackerSnapshot {
	return TrackerSnapshot{
		ClosedRaw:    t.closed.raw,
		ClosedPhiSum: t.closed.phiSum,
		ClosedWeight: t.closed.weight,
		Counter:      t.counter.Snapshot(),
	}
}

// RestoreTracker rebuilds a tracker from a snapshot taken under the same
// model and temperature. The restored tracker is bit-identical to the
// snapshotted one for every future Push/Damage sequence: the closed
// aggregates are restored as the exact floats they were (no
// re-accumulation, so no float-ordering drift) and the pending-cycle
// walk re-derives everything else from the counter state.
func RestoreTracker(model Model, tempC float64, s TrackerSnapshot) *Tracker {
	t := NewTracker(model, tempC)
	t.closed = cycleSums{raw: s.ClosedRaw, phiSum: s.ClosedPhiSum, weight: s.ClosedWeight}
	t.counter.RestoreSnapshot(s.Counter)
	return t
}
