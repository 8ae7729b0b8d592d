package battery

import "repro/internal/simtime"

// Tracker accumulates a battery's state-of-charge history and answers
// degradation queries (Eq. 1-4) incrementally. It is used in two places:
// inside Battery for ground-truth accounting on the node, and inside the
// network server, which reconstructs each node's SoC trace from the
// turning points piggy-backed on data packets.
type Tracker struct {
	model   Model
	tempC   float64
	counter Counter
	stress  *StressCache

	// Permanently retired cycle aggregates.
	closed cycleSums

	pend []Cycle // scratch reused across Damage queries

	// Exact-input memo of the last Damage query: valid while both the
	// age operand and the counter revision match exactly. The cached
	// Breakdown holds the exact floats the full computation produced —
	// no quantization — so memo hits are bit-identical to recomputing.
	memoValid bool
	memoAge   simtime.Duration
	memoRev   uint64
	memoOut   Breakdown

	// Aggregate-level memo: raw/meanPhi/weight depend only on the SoC
	// history, so while the counter revision is unchanged (queries that
	// differ only in age — every at-capacity charging minute) the pending
	// cycle walk and the folds below are skipped and the exact cached
	// floats are reused.
	aggValid   bool
	aggRev     uint64
	aggRaw     float64
	aggMeanPhi float64
	aggWeight  float64

	// Residue prefix: the closed aggregates plus the residue stack's
	// adjacent half cycles, folded bottom first — the exact running sums
	// the pending walk reaches just before its top pair whenever its
	// probe retires nothing. Valid while the stack revision matches.
	preValid bool
	preRev   uint64
	pre      cycleSums
}

// cycleSums holds the three running folds of Eq. (1)-(2) over counted
// cycles: raw = sum of eta·delta·phi, phiSum = sum of eta·phi, weight =
// sum of eta. Every fold goes through add, so two folds over the same
// cycles in the same order produce the same bits.
type cycleSums struct {
	raw, phiSum, weight float64
}

func (s *cycleSums) add(c Cycle) {
	s.raw += c.Count * c.Range * c.Mean
	s.phiSum += c.Count * c.Mean
	s.weight += c.Count
}

// addHalves folds the adjacent pairs of a residue stack as half
// cycles, bottom first.
func (s *cycleSums) addHalves(stack []float64) {
	for i := 0; i+1 < len(stack); i++ {
		s.add(newCycle(stack[i], stack[i+1], 0.5))
	}
}

// meanPhi is the cycle-mean SoC, or rest — the resting SoC — when no
// cycle has been counted yet.
func (s cycleSums) meanPhi(rest float64) float64 {
	if s.weight > 0 {
		return s.phiSum / s.weight
	}
	return rest
}

// NewTracker returns a tracker using the given degradation model and a
// fixed average internal battery temperature in Celsius (the paper
// considers insulated batteries at 25 C).
func NewTracker(model Model, tempC float64) *Tracker {
	t := &Tracker{model: model, tempC: tempC, stress: NewStressCache(model, tempC)}
	t.counter.OnCycle = t.closed.add
	return t
}

// Push records the next SoC sample (fraction of original capacity).
func (t *Tracker) Push(soc float64) { t.counter.Push(soc) }

// Samples returns the number of SoC samples recorded.
func (t *Tracker) Samples() int { return t.counter.Samples() }

// Breakdown decomposes degradation into its components, as plotted in
// the paper's Fig. 2.
type Breakdown struct {
	// Calendar is D_cal of Eq. (1).
	Calendar float64
	// Cycle is D_cyc of Eq. (2).
	Cycle float64
	// Linear is D_L of Eq. (3) (= Calendar + Cycle).
	Linear float64
	// Total is the observed capacity fade D of Eq. (4).
	Total float64
	// MeanSoC is the average SoC across all counted cycles.
	MeanSoC float64
	// Cycles is the eta-weighted number of counted cycles.
	Cycles float64
}

// Damage returns the degradation breakdown after the given battery age.
// Repeated queries with an identical age and an unchanged SoC history
// (same counter revision) return the memoized breakdown — the
// simulator's observability sampling, run-end accounting, and gateway
// recomputations all re-query at instants where nothing moved.
func (t *Tracker) Damage(age simtime.Duration) Breakdown {
	if t.memoValid && age == t.memoAge && t.counter.rev == t.memoRev {
		return t.memoOut
	}
	t.aggregate()
	raw, meanPhi, weight := t.aggRaw, t.aggMeanPhi, t.aggWeight
	var b Breakdown
	b.MeanSoC = meanPhi
	b.Cycles = weight
	b.Calendar = t.stress.CalendarAging(age, meanPhi)
	b.Cycle = t.stress.CycleAgingRaw(raw)
	b.Linear = b.Calendar + b.Cycle
	b.Total = t.model.Nonlinear(b.Linear)
	t.memoValid, t.memoAge, t.memoRev, t.memoOut = true, age, t.counter.rev, b
	return b
}

// aggregate refreshes the aggregate memo for the current counter
// revision: the closed aggregates folded with every pending cycle, in
// AppendPending's order. When the pending probe retires nothing, the
// pending cycles are the residue's half cycles plus one top pair, so the
// fold is the cached residue prefix plus that pair — the same additions
// in the same order, at O(1) per query instead of O(len(stack)).
func (t *Tracker) aggregate() {
	c := &t.counter
	if t.aggValid && c.rev == t.aggRev {
		return
	}
	var sums cycleSums
	if c.probePops() {
		sums = t.closed
		t.pend = c.AppendPending(t.pend[:0])
		for _, cy := range t.pend {
			sums.add(cy)
		}
	} else {
		if !t.preValid || t.preRev != c.stackRev {
			t.pre = t.closed
			t.pre.addHalves(c.stack)
			t.preValid, t.preRev = true, c.stackRev
		}
		sums = t.pre
		if n := len(c.stack); n > 0 && c.stack[n-1] != c.last {
			sums.add(newCycle(c.stack[n-1], c.last, 0.5))
		}
	}
	t.aggValid, t.aggRev = true, c.rev
	t.aggRaw, t.aggMeanPhi, t.aggWeight = sums.raw, sums.meanPhi(c.last), sums.weight
}

// Degradation returns the observed capacity fade after the given age.
func (t *Tracker) Degradation(age simtime.Duration) float64 {
	return t.Damage(age).Total
}

// The float margin RunCeiling adds to its bound. The ceiling and every
// Degradation value it bounds are float evaluations of the same
// non-negative sums, exponentials and Eq. (4) transform, so they differ
// from their real-arithmetic values by a few ulps per operation: a
// relative error below 1e-13 on the linear degradation (at most a few
// dozen non-negative terms, no cancellation) and an absolute error below
// 1e-15 on the fade (Eq. 4 subtracts from 1). The margins exceed both by
// orders of magnitude, and the absolute one also covers the rounding of
// the stored-energy comparisons Battery's full-accept span makes
// (a fade margin of 1e-12 is worth about 1e-12·theta·capacity joules of
// headroom, thousands of ulps of the stored energy). Their price is a
// limit about 1e-9 of capacity below the exact one.
const (
	runCeilingRel = 1e-9
	runCeilingAbs = 1e-12
)

// RunCeiling returns an upper bound of Degradation(age') for every age'
// at or before age, valid for the current SoC history and for every
// continuation of it by a rising run — pushes of non-decreasing samples
// — that stays at or below vmax. Samples are SoC fractions, so
// non-negative. Battery.Minutes uses it to prove whole charge spans
// accept in full without per-minute degradation queries.
//
// The bound evaluates the run's pending cycles with the probe at vmax.
// A counter that is not rising first extracts last as a turning point:
// the run's first push will confirm it, and the cycles that retires join
// the closed aggregates. From then on the residue stack is frozen, only
// the provisional extremum v moves, and along v the pending cycles move
// monotonically:
//
//   - the top pair (s, v), with s the trough the run rises from, counts
//     0.5·(v−s)·(v+s)/2 of raw and 0.5·(v+s)/2 of eta·phi, both
//     increasing in v;
//   - when v reaches the peak below s, extraction retires (peak, s) as a
//     full cycle (or a residue half) and (s', v) becomes the top pair.
//     At the threshold the retired cycle and the new pair are exactly
//     the two half pairs they replace, so raw, eta·phi and eta are
//     continuous across every pop, and eta stays constant;
//   - hence pending raw and the cycle-mean SoC are non-decreasing in v,
//     and the raw at vmax bounds every state of the run. The state
//     before the first push (the live history) has the raw of the run's
//     start, which the bound also takes.
//
// Calendar aging is exp(K2·(phi−K3)) times the age, monotone in both.
// phi ranges over the live history's mean and the run's, which is
// non-decreasing from the run's start (v = last, a zero-range top pair
// when the counter was not rising) to its top (v = vmax), so the stress
// is taken at the endpoint that maximizes it: the top for K2 >= 0, the
// start for K2 < 0. Evaluating at age covers every earlier instant, and
// Eq. (4) is monotone, so the bounded linear degradation bounds the
// observed fade. runCeilingRel and runCeilingAbs cover float rounding.
func (t *Tracker) RunCeiling(age simtime.Duration, vmax float64) float64 {
	c := &t.counter
	if c.n == 0 {
		return 1 // no run start to anchor a bound on
	}
	live, top := t.closed, t.closed
	c.foldRun(max(vmax, c.last), &live, &top)
	var liveRaw, livePhi, startPhi float64
	if c.dir == +1 {
		// The history is the run's first state.
		t.aggregate()
		liveRaw, livePhi = t.aggRaw, t.aggMeanPhi
		startPhi = livePhi
	} else {
		liveRaw, livePhi = live.raw, live.meanPhi(c.last)
		// The run's first push just above last adds a zero-range half
		// cycle at last: the limit its cycle-mean SoC starts from.
		live.add(newCycle(c.last, c.last, 0.5))
		startPhi = live.meanPhi(c.last)
	}
	raw := max(liveRaw, top.raw)
	phi := max(livePhi, top.meanPhi(c.last))
	if t.model.K2 < 0 {
		phi = min(livePhi, startPhi)
	}
	linear := t.stress.CalendarAging(age, phi) + t.stress.CycleAgingRaw(raw)
	return t.model.Nonlinear(linear*(1+runCeilingRel)) + runCeilingAbs
}

// Model returns the degradation model the tracker was built with.
func (t *Tracker) Model() Model { return t.model }

// Temperature returns the fixed average battery temperature in Celsius.
func (t *Tracker) Temperature() float64 { return t.tempC }
