package battery

import (
	"fmt"

	"repro/internal/simtime"
)

// Transition is one charge<->discharge direction change of a battery: the
// compressed SoC-trace sample that a node piggy-backs on its next data
// packet (Sec. III-B, "Overhead of sharing battery trace").
type Transition struct {
	// At is when the direction changed.
	At simtime.Time
	// SoC is the state of charge at the transition, as a fraction of the
	// original capacity.
	SoC float64
}

// Battery is the software-defined rechargeable battery of one node: it
// tracks stored energy, enforces the protocol's charge limit theta,
// accumulates its own ground-truth SoC history for degradation
// accounting, and records the direction-change transitions that the node
// reports to the gateway.
//
// Battery is not safe for concurrent use; in the simulator each battery
// belongs to exactly one node.
type Battery struct {
	model    Model
	tempC    float64
	original float64 // original maximum capacity, joules
	stored   float64 // current stored energy, joules
	tracker  *Tracker

	chargeLimit float64 // theta: max stored energy as fraction of current max capacity

	// The charge spans Step and Minutes arm (zero = disarmed). Until
	// skipUntil every Charge is proven a strict no-op; until fastUntil
	// every Charge that keeps the stored energy at or below fastLimit is
	// proven to accept in full. Only a push can break either proof, and
	// every push goes through the battery's own methods: a Charge inside
	// a span keeps its proof, and Discharge disarms both.
	skipUntil simtime.Time
	fastUntil simtime.Time
	fastLimit float64

	lastDir     int // +1 charging, -1 discharging
	transitions []Transition
}

// New returns a battery with the given original capacity in joules and
// initial state of charge (fraction of original capacity), at a fixed
// internal temperature in Celsius.
func New(model Model, capacityJ, initialSoC, tempC float64) (*Battery, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if capacityJ <= 0 {
		return nil, fmt.Errorf("battery: capacity %v J must be positive", capacityJ)
	}
	if initialSoC < 0 || initialSoC > 1 {
		return nil, fmt.Errorf("battery: initial SoC %v outside [0,1]", initialSoC)
	}
	b := &Battery{
		model:       model,
		tempC:       tempC,
		original:    capacityJ,
		stored:      initialSoC * capacityJ,
		tracker:     NewTracker(model, tempC),
		chargeLimit: 1,
	}
	b.tracker.Push(b.soc())
	return b, nil
}

// SetChargeLimit sets theta: the maximum energy the battery is allowed to
// store, as a fraction of its current maximum capacity. The paper's H-50
// uses 0.5; plain LoRaWAN uses 1. Values are clamped to [0,1]. Any excess
// already stored is not shed; it simply stops accepting charge. Both
// charge spans were proven under the old theta, so both are disarmed.
func (b *Battery) SetChargeLimit(theta float64) {
	b.chargeLimit = min(1, max(0, theta))
	b.skipUntil, b.fastUntil = 0, 0
}

// ChargeLimit returns the configured theta.
func (b *Battery) ChargeLimit() float64 { return b.chargeLimit }

// OriginalCapacity returns the as-new capacity in joules.
func (b *Battery) OriginalCapacity() float64 { return b.original }

// CurrentMaxCapacity returns the degraded capacity in joules at the given
// instant.
func (b *Battery) CurrentMaxCapacity(now simtime.Time) float64 {
	return b.original * (1 - b.refresh(now))
}

// Stored returns the energy currently stored, in joules.
func (b *Battery) Stored() float64 { return b.stored }

// SoC returns the state of charge as a fraction of the ORIGINAL capacity,
// the paper's Sec. II-C definition (used by the degradation model).
func (b *Battery) SoC() float64 { return b.soc() }

func (b *Battery) soc() float64 { return b.stored / b.original }

// Headroom returns how much more energy the battery would accept right
// now, given theta and the degraded capacity.
func (b *Battery) Headroom(now simtime.Time) float64 {
	limit := b.chargeLimit * b.CurrentMaxCapacity(now)
	return max(0, limit-b.stored)
}

// Charge stores up to the given energy, returning the amount actually
// accepted after applying the theta limit and the degraded capacity.
func (b *Battery) Charge(now simtime.Time, joules float64) float64 {
	if joules <= 0 {
		return 0
	}
	accepted := min(joules, b.Headroom(now))
	if accepted <= 0 {
		return 0
	}
	b.stored += accepted
	b.record(now, +1)
	return accepted
}

// Discharge draws up to the given energy, returning the amount actually
// supplied (less than requested if the battery runs empty).
func (b *Battery) Discharge(now simtime.Time, joules float64) float64 {
	b.skipUntil, b.fastUntil = 0, 0
	if joules <= 0 {
		return 0
	}
	supplied := min(joules, b.stored)
	if supplied <= 0 {
		return 0
	}
	b.stored -= supplied
	b.record(now, -1)
	return supplied
}

// CanSupply reports whether the battery currently stores at least the
// given energy.
func (b *Battery) CanSupply(joules float64) bool { return b.stored >= joules }

// Step applies the part of a minute that ends at now, whose energy
// balance (harvest less draw) is net joules: exactly what Charge(now,
// net) or Discharge(now, -net) would do, with the charge spans Minutes
// describes. Calls to Step and Minutes come in non-decreasing time
// order and end after time 0.
func (b *Battery) Step(now simtime.Time, net float64) {
	switch {
	case net < 0:
		b.Discharge(now, -net)
	case net > 0 && now > b.skipUntil:
		b.charge(now, net)
	}
}

// Minutes applies len(powW) whole minutes: minute k ends at first +
// k·minute and its energy balance is powW[k]*60.0 − baseJ, less extraJ
// in minute 0. Every observable — stored energy, SoC-trace counter
// state, transitions, sample count and every later degradation query —
// ends exactly as per-minute Charge(end, net) calls for net >= 0 and
// Discharge(end, −net) calls for net < 0 would leave it, while most
// minutes skip the degradation query, and a falling run its SoC pushes:
//
//   - a charging minute inside the at-capacity span (skipUntil) does
//     nothing, which is what the rejected Charge would do;
//   - a charging minute inside the full-accept span (fastUntil,
//     fastLimit) adds net and pushes its SoC, which is what the
//     full-accepting Charge would do, minus its degradation query;
//   - a run of discharging minutes after one that left the counter
//     falling collapses to one Counter.ExtendRun: the stored-energy
//     chain is the identical one operation per minute (never a summed
//     batch, which would re-associate), every step is negative, so the
//     interior SoC samples of the run are non-increasing — never
//     turning points, never transitions — and only the final one
//     matters. The run goes on through minutes on an empty battery,
//     which supply nothing and push nothing.
//
// The first charging minute past the full-accept span proves a new one
// through the end of the next day before it charges (see charge), and a
// Charge that then falls short of net arms the at-capacity span for as
// long when it can prove it. The preconditions are Step's.
func (b *Battery) Minutes(first simtime.Time, powW []float64, baseJ, extraJ float64) {
	const minuteT = simtime.Time(simtime.Minute)
	c := &b.tracker.counter
	for k := 0; k < len(powW); {
		now := first + simtime.Time(k)*minuteT
		net := powW[k]*60.0 - baseJ
		if k == 0 {
			net -= extraJ
		}
		k++
		switch {
		case net > 0 && now <= b.skipUntil:
			// At capacity: the Charge would reject without mutating.
		case net > 0:
			b.charge(now, net)
		case net < 0:
			b.Discharge(now, -net)
			if c.dir != -1 || b.lastDir != -1 {
				continue
			}
			stored, pushes := b.stored, 0
			for ; k < len(powW); k++ {
				net := powW[k]*60.0 - baseJ
				if net >= 0 {
					break
				}
				if supplied := min(-net, stored); supplied > 0 {
					stored -= supplied
					pushes++
				}
			}
			b.stored = stored
			c.ExtendRun(b.soc(), pushes)
		}
	}
}

// charge applies a charging step of net > 0 joules ending at now, past
// the at-capacity span.
//
// A step past the full-accept span first proves a new one through end,
// the end of the day after now's: until then every charge pushes a
// non-decreasing SoC no higher than theta — a rising run, whether or
// not the battery was charging when the proof was made — so
// Tracker.RunCeiling(end, theta) bounds the fade at every instant t <=
// end, before the run's first push and after any of its pushes. With
// stored+net <= fastLimit = theta·original·(1−ceiling), refresh(t)
// cannot clamp (stored <= original·(1−fade(t))) and Headroom(t) =
// theta·original·(1−fade(t)) − stored >= net, so the Charge would
// accept net exactly (the ceiling's absolute margin keeps this true
// after rounding). A Charge inside the span, full or partial, continues
// the same rising run at or below theta, so the proof survives it; a
// Discharge ends the run and disarms the span.
//
// A step over the limit runs the real Charge. When that falls short of
// net the battery is at its cap, and the at-capacity span is armed
// through end if every Charge at an instant in [now, end] is a strict
// no-op — zero headroom and no capacity clamp — for the SoC history as
// it stands. Both halves of that proof rest on the fade being
// non-decreasing in age for a fixed history (calendar aging is monotone
// in time and cycle aging is constant while nothing is pushed):
//
//   - headroom stays zero: the smallest fade in the span is the one at
//     now, so theta·original·(1−fade(now)) bounds the limit at every
//     later instant; if even that bound does not exceed stored,
//     headroom is zero everywhere;
//   - no clamp: refresh clamps stored to original·(1−fade(t)), and the
//     tightest clamp is at end, so checking stored against the capacity
//     at end covers every earlier instant.
//
// The fade at now is queried after the partial accept's push, which can
// lower the cycle-mean SoC and with it the fade. Only a push can break
// the proof: a Charge inside the span cannot push (its headroom is
// zero), and a Discharge disarms the span. At theta = 1 the proof fails
// (capacity fade moves the clamp) and every charging minute at the cap
// runs the real Charge.
func (b *Battery) charge(now simtime.Time, net float64) {
	if now > b.fastUntil {
		b.fastUntil = spanEnd(now)
		b.fastLimit = b.chargeLimit * b.original * (1 - b.tracker.RunCeiling(simtime.Duration(b.fastUntil), b.chargeLimit))
	}
	if b.stored+net <= b.fastLimit {
		b.stored += net
		b.record(now, +1)
		return
	}
	if b.Charge(now, net) < net {
		end := spanEnd(now)
		if b.chargeLimit*(b.original*(1-b.tracker.Degradation(simtime.Duration(now)))) <= b.stored &&
			b.stored <= b.original*(1-b.tracker.Degradation(simtime.Duration(end))) {
			b.skipUntil = end
		}
	}
}

// spanEnd is the end of the day after the one the step ending at now
// (now > 0) falls in: how long a charge span proven at now lasts.
func spanEnd(now simtime.Time) simtime.Time {
	const day = simtime.Time(simtime.Day)
	return ((now-1)/day + 2) * day
}

// record pushes the post-operation SoC into the ground-truth tracker and
// logs a reportable transition when the charge/discharge direction flips.
func (b *Battery) record(now simtime.Time, dir int) {
	soc := b.soc()
	b.tracker.Push(soc)
	if b.lastDir != 0 && dir != b.lastDir {
		if b.transitions == nil {
			// Skip the 1→2→4→8 growth chain every battery would walk.
			b.transitions = make([]Transition, 0, 8)
		}
		b.transitions = append(b.transitions, Transition{At: now, SoC: soc})
	}
	b.lastDir = dir
}

// AppendTransitions appends the direction-change transitions recorded
// since the previous call to dst, clears the pending list, and returns
// dst. The node queues these for its next uplink packets. The internal
// buffer keeps its capacity, so a caller that reuses dst drains without
// allocating once both have grown to their steady-state size.
func (b *Battery) AppendTransitions(dst []Transition) []Transition {
	if need := len(dst) + len(b.transitions); cap(dst) < need {
		nd := make([]Transition, len(dst), max(2*need, 8))
		copy(nd, dst)
		dst = nd
	}
	dst = append(dst, b.transitions...)
	b.transitions = b.transitions[:0]
	return dst
}

// PendingTransitions returns how many transitions await reporting.
func (b *Battery) PendingTransitions() int { return len(b.transitions) }

// refresh returns the capacity fade at now, clamping the stored energy
// to the shrunken capacity. The tracker memoizes the query on the exact
// age and SoC-history revision, so a read at the instant of a push sees
// the post-push fade.
func (b *Battery) refresh(now simtime.Time) float64 {
	fade := b.tracker.Degradation(simtime.Duration(now))
	if maxCap := b.original * (1 - fade); b.stored > maxCap {
		b.stored = maxCap
	}
	return fade
}

// Degradation returns the ground-truth capacity fade at the given instant.
func (b *Battery) Degradation(now simtime.Time) float64 { return b.refresh(now) }

// Damage returns the full ground-truth degradation breakdown.
func (b *Battery) Damage(now simtime.Time) Breakdown {
	return b.tracker.Damage(simtime.Duration(now))
}

// AtEoL reports whether the battery reached its end of life (capacity
// fade at or beyond the model's threshold).
func (b *Battery) AtEoL(now simtime.Time) bool {
	return b.Degradation(now) >= b.model.EoLThreshold
}

// Model returns the degradation model of this battery.
func (b *Battery) Model() Model { return b.model }
