package battery

import (
	"math/rand/v2"
	"testing"

	"repro/internal/simtime"
)

func newTestBattery(t *testing.T, capacityJ, initialSoC float64) *Battery {
	t.Helper()
	b, err := New(DefaultModel(), capacityJ, initialSoC, 25)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	model := DefaultModel()
	if _, err := New(model, 0, 0.5, 25); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := New(model, 10, -0.1, 25); err == nil {
		t.Error("negative SoC should fail")
	}
	if _, err := New(model, 10, 1.1, 25); err == nil {
		t.Error("SoC > 1 should fail")
	}
	bad := model
	bad.K1 = 0
	if _, err := New(bad, 10, 0.5, 25); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestChargeDischargeAccounting(t *testing.T) {
	b := newTestBattery(t, 10, 0.5)
	if got := b.Stored(); got != 5 {
		t.Fatalf("Stored = %v, want 5", got)
	}

	if got := b.Charge(0, 2); got != 2 {
		t.Errorf("Charge(2) accepted %v, want 2", got)
	}
	if got := b.SoC(); !almostEqual(got, 0.7, 1e-12) {
		t.Errorf("SoC = %v, want 0.7", got)
	}

	if got := b.Discharge(simtime.Time(simtime.Minute), 3); got != 3 {
		t.Errorf("Discharge(3) supplied %v, want 3", got)
	}
	if got := b.Stored(); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Stored = %v, want 4", got)
	}

	// Over-discharge is clamped.
	if got := b.Discharge(simtime.Time(2*simtime.Minute), 100); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Discharge(100) supplied %v, want 4", got)
	}
	if got := b.Stored(); got != 0 {
		t.Errorf("Stored = %v, want 0", got)
	}

	// Zero and negative amounts are no-ops.
	if got := b.Charge(0, -1); got != 0 {
		t.Errorf("Charge(-1) = %v, want 0", got)
	}
	if got := b.Discharge(0, 0); got != 0 {
		t.Errorf("Discharge(0) = %v, want 0", got)
	}
}

func TestChargeLimitTheta(t *testing.T) {
	b := newTestBattery(t, 10, 0.3)
	b.SetChargeLimit(0.5) // the paper's H-50

	accepted := b.Charge(0, 5)
	if !almostEqual(accepted, 2, 1e-9) {
		t.Errorf("Charge accepted %v, want 2 (up to theta=0.5)", accepted)
	}
	if got := b.SoC(); !almostEqual(got, 0.5, 1e-9) {
		t.Errorf("SoC = %v, want capped at 0.5", got)
	}
	if got := b.Charge(0, 1); got != 0 {
		t.Errorf("Charge at cap accepted %v, want 0", got)
	}

	// Theta values are clamped to [0,1].
	b.SetChargeLimit(2)
	if got := b.ChargeLimit(); got != 1 {
		t.Errorf("ChargeLimit = %v, want 1", got)
	}
	b.SetChargeLimit(-1)
	if got := b.ChargeLimit(); got != 0 {
		t.Errorf("ChargeLimit = %v, want 0", got)
	}
}

func TestCanSupplyAndHeadroom(t *testing.T) {
	b := newTestBattery(t, 10, 0.4)
	if !b.CanSupply(4) {
		t.Error("CanSupply(4) should be true")
	}
	if b.CanSupply(4.0001) {
		t.Error("CanSupply(4.0001) should be false")
	}
	b.SetChargeLimit(0.6)
	if got := b.Headroom(0); !almostEqual(got, 2, 1e-9) {
		t.Errorf("Headroom = %v, want 2", got)
	}
}

func TestTransitionsRecordedOnDirectionChange(t *testing.T) {
	b := newTestBattery(t, 10, 0.5)

	b.Charge(simtime.Time(1*simtime.Minute), 1)    // charging
	b.Charge(simtime.Time(2*simtime.Minute), 1)    // still charging: no transition
	b.Discharge(simtime.Time(3*simtime.Minute), 2) // flip: transition
	b.Discharge(simtime.Time(4*simtime.Minute), 1) // still discharging
	b.Charge(simtime.Time(5*simtime.Minute), 1)    // flip: transition

	got := b.AppendTransitions(nil)
	if len(got) != 2 {
		t.Fatalf("transitions = %+v, want 2", got)
	}
	if got[0].At != simtime.Time(3*simtime.Minute) {
		t.Errorf("first transition at %v, want minute 3", got[0].At)
	}
	if !almostEqual(got[0].SoC, 0.5, 1e-9) {
		t.Errorf("first transition SoC = %v, want 0.5 (after the discharge)", got[0].SoC)
	}
	if got[1].At != simtime.Time(5*simtime.Minute) {
		t.Errorf("second transition at %v, want minute 5", got[1].At)
	}

	if b.PendingTransitions() != 0 {
		t.Error("AppendTransitions should clear the pending list")
	}
	if more := b.AppendTransitions(nil); len(more) != 0 {
		t.Errorf("second drain returned %v", more)
	}
}

func TestDegradationGrowsWithAgeAndSoC(t *testing.T) {
	high := newTestBattery(t, 10, 1.0)
	low := newTestBattery(t, 10, 0.3)

	year := simtime.Time(simtime.Year)
	dHigh := high.Degradation(year)
	dLow := low.Degradation(year)
	if dHigh <= dLow {
		t.Errorf("battery resting at SoC 1.0 should degrade faster: %v vs %v", dHigh, dLow)
	}

	d1 := high.Degradation(year)
	d2 := high.Degradation(year.Add(simtime.Year))
	if d2 <= d1 {
		t.Errorf("degradation must grow with age: %v -> %v", d1, d2)
	}
}

func TestCapacityFadeShrinksMax(t *testing.T) {
	b := newTestBattery(t, 10, 1.0)
	fiveYears := simtime.Time(5 * simtime.Year)
	maxCap := b.CurrentMaxCapacity(fiveYears)
	if maxCap >= 10 {
		t.Errorf("CurrentMaxCapacity after 5 years = %v, want < 10", maxCap)
	}
	// Stored energy is clamped to the shrunken capacity.
	if b.Stored() > maxCap {
		t.Errorf("Stored %v exceeds degraded capacity %v", b.Stored(), maxCap)
	}
}

func TestAtEoL(t *testing.T) {
	b := newTestBattery(t, 10, 1.0)
	if b.AtEoL(simtime.Time(simtime.Year)) {
		t.Error("battery should not be at EoL after 1 year")
	}
	// A battery resting at full charge reaches 20% fade within ~8 years.
	if !b.AtEoL(simtime.Time(12 * simtime.Year)) {
		t.Error("battery should be at EoL after 12 years at SoC 1.0")
	}
}

func TestDamageBreakdownShape(t *testing.T) {
	// Fig. 2 of the paper: for a LoRa-like duty cycle (shallow daily
	// cycles), calendar aging dominates cycle aging.
	b := newTestBattery(t, 10, 0.9)
	now := simtime.Time(0)
	for day := 0; day < 365; day++ {
		now = simtime.Time(day) * simtime.Time(simtime.Day)
		b.Discharge(now, 2)                   // overnight drain
		b.Charge(now.Add(12*simtime.Hour), 2) // solar recharge
	}
	bd := b.Damage(now)
	if bd.Cycle <= 0 {
		t.Fatal("expected non-zero cycle aging")
	}
	if bd.Calendar <= bd.Cycle {
		t.Errorf("calendar aging (%v) should dominate cycle aging (%v)", bd.Calendar, bd.Cycle)
	}
	if !almostEqual(bd.Linear, bd.Calendar+bd.Cycle, 1e-15) {
		t.Error("Linear must equal Calendar + Cycle")
	}
	if bd.Total < bd.Linear {
		t.Error("SEI transform should amplify small linear damage")
	}
	if bd.Cycles < 300 {
		t.Errorf("expected ~365 counted cycles, got %v", bd.Cycles)
	}
	if bd.MeanSoC <= 0.5 || bd.MeanSoC > 1 {
		t.Errorf("mean SoC = %v, want in (0.5, 1]", bd.MeanSoC)
	}
}

func TestTrackerMeanSoCFallback(t *testing.T) {
	tr := NewTracker(DefaultModel(), 25)
	tr.Push(0.8)
	bd := tr.Damage(simtime.Year)
	if !almostEqual(bd.MeanSoC, 0.8, 1e-12) {
		t.Errorf("with no cycles, mean SoC should fall back to resting SoC: %v", bd.MeanSoC)
	}
	if bd.Cycle != 0 {
		t.Errorf("cycle aging with no cycles = %v, want 0", bd.Cycle)
	}
	if bd.Calendar <= 0 {
		t.Error("calendar aging should accrue regardless of cycling")
	}
}

// TestDischargeRunMatchesSequentialDischarges pins Minutes' collapsed
// falling run bit-for-bit against count sequential Discharge calls
// across randomized mixed histories: every observable — stored energy,
// sample count, transitions, and all later degradation queries — must
// match exactly, including runs that empty the battery mid-way, runs
// entered right after a charge (direction flip at the first sample), and
// runs on a battery that never moved (no established direction). A run
// of dark minutes is count minutes at zero power with the step as the
// per-minute draw.
func TestDischargeRunMatchesSequentialDischarges(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xd15c, 0x4a11))
	collapsed := 0
	for trial := 0; trial < 200; trial++ {
		cap := 50 + rng.Float64()*100
		soc := rng.Float64()
		ref := newTestBattery(t, cap, soc)
		run := newTestBattery(t, cap, soc)
		now := simtime.Time(simtime.Hour)

		// Random warm-up history, shared verbatim.
		for i, ops := 0, rng.IntN(6); i < ops; i++ {
			j := rng.Float64() * 10
			if rng.IntN(2) == 0 {
				ref.Charge(now, j)
				run.Charge(now, j)
			} else {
				ref.Discharge(now, j)
				run.Discharge(now, j)
			}
			now += simtime.Time(simtime.Minute)
		}

		step := []float64{0.05, 1.5, cap}[rng.IntN(3)] // tiny, typical, instantly-emptying
		count := 1 + rng.IntN(900)
		refRev, runRev := ref.tracker.counter.rev, run.tracker.counter.rev
		for i := 0; i < count; i++ {
			ref.Discharge(now+simtime.Time(int64(i)*int64(simtime.Minute)), step)
		}
		run.Minutes(now, make([]float64, count), step, 0)
		if run.tracker.counter.rev-runRev < ref.tracker.counter.rev-refRev {
			collapsed++
		}

		if ref.Stored() != run.Stored() {
			t.Fatalf("trial %d: stored %v != %v", trial, ref.Stored(), run.Stored())
		}
		if ref.tracker.Samples() != run.tracker.Samples() {
			t.Fatalf("trial %d: samples %d != %d", trial, ref.tracker.Samples(), run.tracker.Samples())
		}
		age := simtime.Duration(now) + 2*simtime.Day
		if refD, runD := ref.tracker.Damage(age), run.tracker.Damage(age); refD != runD {
			t.Fatalf("trial %d: damage %+v != %+v", trial, refD, runD)
		}
		refTr, runTr := ref.AppendTransitions(nil), run.AppendTransitions(nil)
		if len(refTr) != len(runTr) {
			t.Fatalf("trial %d: transitions %v != %v", trial, refTr, runTr)
		}
		for i := range refTr {
			if refTr[i] != runTr[i] {
				t.Fatalf("trial %d: transition %d: %+v != %+v", trial, i, refTr[i], runTr[i])
			}
		}
		// The collapsed run must leave the counter mid-run exactly like
		// the sequential path: a follow-up flip and query still agree.
		ref.Charge(now, 3)
		run.Charge(now, 3)
		if refD, runD := ref.tracker.Damage(age+simtime.Hour), run.tracker.Damage(age+simtime.Hour); refD != runD {
			t.Fatalf("trial %d: post-flip damage %+v != %+v", trial, refD, runD)
		}
	}
	if collapsed < 50 {
		t.Fatalf("only %d of 200 trials collapsed a falling run", collapsed)
	}
}

// TestChargeRunMatchesSequentialCharges pins a charging run of Minutes
// — the full-accept span proven by its first minute, each minute one add
// and one SoC push without the degradation query — bit-for-bit against
// one Charge per minute, and requires every trial to stay inside the
// span.
func TestChargeRunMatchesSequentialCharges(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc4a6, 0x2f01))
	for trial := 0; trial < 200; trial++ {
		cap := 200 + rng.Float64()*200
		soc := 0.1 + rng.Float64()*0.3
		ref := newTestBattery(t, cap, soc)
		run := newTestBattery(t, cap, soc)
		now := simtime.Time(simtime.Hour)

		// Establish a rising run, as a daytime node's battery has one.
		for i := 0; i < 2; i++ {
			ref.Charge(now, 1.5)
			run.Charge(now, 1.5)
			now += simtime.Time(simtime.Minute)
		}

		count := 3 + rng.IntN(600)
		const baseJ = 0.005
		pows := make([]float64, count)
		for i := range pows {
			pows[i] = (0.015 + rng.Float64()*0.05) / 60 // tiny vs headroom: all full-accept
		}
		refRev, runRev := ref.tracker.counter.rev, run.tracker.counter.rev
		for i, p := range pows {
			ref.Charge(now+simtime.Time(int64(i)*int64(simtime.Minute)), p*60.0-baseJ)
		}
		run.Minutes(now, pows, baseJ, 0)
		end := now + simtime.Time(int64(count)*int64(simtime.Minute))
		if run.fastUntil < end || run.Stored() > run.fastLimit {
			t.Fatalf("trial %d: the run left the full-accept span", trial)
		}
		if got, want := run.tracker.counter.rev-runRev, ref.tracker.counter.rev-refRev; got != want {
			t.Fatalf("trial %d: %d SoC-history revisions, per-minute %d", trial, got, want)
		}

		if ref.Stored() != run.Stored() {
			t.Fatalf("trial %d: stored %v != %v", trial, ref.Stored(), run.Stored())
		}
		if ref.tracker.Samples() != run.tracker.Samples() {
			t.Fatalf("trial %d: samples %d != %d", trial, ref.tracker.Samples(), run.tracker.Samples())
		}
		age := simtime.Duration(now) + 2*simtime.Day
		if refD, runD := ref.tracker.Damage(age), run.tracker.Damage(age); refD != runD {
			t.Fatalf("trial %d: damage %+v != %+v", trial, refD, runD)
		}
		if refTr, runTr := ref.AppendTransitions(nil), run.AppendTransitions(nil); len(refTr) != len(runTr) {
			t.Fatalf("trial %d: transitions %v != %v", trial, refTr, runTr)
		}
		// The run must leave the counter mid-run exactly like the
		// sequential path: a direction flip afterwards still agrees,
		// including the transition it reports.
		ref.Discharge(end, 3)
		run.Discharge(end, 3)
		refTr, runTr := ref.AppendTransitions(nil), run.AppendTransitions(nil)
		if len(refTr) != 1 || len(runTr) != 1 || refTr[0] != runTr[0] {
			t.Fatalf("trial %d: post-flip transitions %v != %v", trial, refTr, runTr)
		}
		if refD, runD := ref.tracker.Damage(age+simtime.Hour), run.tracker.Damage(age+simtime.Hour); refD != runD {
			t.Fatalf("trial %d: post-flip damage %+v != %+v", trial, refD, runD)
		}
	}
}

// TestChargeRunRefusesWrongDirection: a charging run of Minutes that
// starts with a direction change. On a fresh battery (no direction) the
// first sample establishes the direction, and on a falling run it is a
// turning point that records a transition. A first step too small to
// move the stored energy pushes an equal sample: it records the
// transition but leaves the counter falling, so the turning point comes
// with the next minute. Every case must match one Charge per minute,
// push for push. The name dates from a charging-run collapse that had
// to refuse these cases.
func TestChargeRunRefusesWrongDirection(t *testing.T) {
	for _, c := range []struct {
		name    string
		falling bool
		first   float64
		seqRevs uint64
	}{
		{"fresh", false, 0.02, 4},
		{"falling", true, 0.02, 4},
		{"falling, equal first sample", true, 1e-22, 3},
	} {
		ref := newTestBattery(t, 100, 0.5)
		run := newTestBattery(t, 100, 0.5)
		now := simtime.Time(simtime.Hour)
		if c.falling {
			for _, b := range []*Battery{ref, run} {
				b.Charge(now, 2)
				b.Discharge(now, 5)
				b.AppendTransitions(nil)
			}
		}
		pows := []float64{c.first, 0.03, 0.03, 0.05}
		refRev, runRev := ref.tracker.counter.rev, run.tracker.counter.rev
		for k, p := range pows {
			ref.Charge(now+simtime.Time(k+1)*minuteT, p*60.0)
		}
		run.Minutes(now+minuteT, pows, 0, 0)
		requireTwins(t, 0, ref, run)
		if got, want := run.tracker.counter.rev-runRev, ref.tracker.counter.rev-refRev; got != c.seqRevs || want != c.seqRevs {
			t.Fatalf("%s: %d revisions for the run, per-minute %d; want %d", c.name, got, want, c.seqRevs)
		}
		if tr := run.AppendTransitions(nil); c.falling != (len(tr) == 1) || c.falling && tr[0].At != now+minuteT {
			t.Fatalf("%s: transitions %v", c.name, tr)
		}
	}
}

// TestDischargeRunRefusesWrongDirection is the falling mirror of the
// equal-sample case: a first draw too small to move the stored energy
// records the transition but leaves the counter rising, so the next
// minute is the turning point and must not be collapsed.
func TestDischargeRunRefusesWrongDirection(t *testing.T) {
	ref := newTestBattery(t, 1000, 0.5)
	run := newTestBattery(t, 1000, 0.5)
	now := simtime.Time(simtime.Hour)
	for _, b := range []*Battery{ref, run} {
		b.Charge(now, 2)
		b.AppendTransitions(nil)
	}
	// Minute 0 nets 0.5·60 − 30 − 1e-20 = −1e-20 J, the rest −30 J.
	pows := []float64{0.5, 0, 0, 0}
	const baseJ, extraJ = 30, 1e-20
	refRev, runRev := ref.tracker.counter.rev, run.tracker.counter.rev
	for k, p := range pows {
		net := p*60.0 - baseJ
		if k == 0 {
			net -= extraJ
		}
		ref.Discharge(now+simtime.Time(k+1)*minuteT, -net)
	}
	run.Minutes(now+minuteT, pows, baseJ, extraJ)
	requireTwins(t, 0, ref, run)
	if got, want := run.tracker.counter.rev-runRev, ref.tracker.counter.rev-refRev; got != 2 || want != 3 {
		t.Fatalf("%d revisions for the run, per-minute %d; want 2 and 3", got, want)
	}
	if tr := run.AppendTransitions(nil); len(tr) != 1 || tr[0].At != now+minuteT {
		t.Fatalf("transitions %v, want one at the first minute", tr)
	}
}
