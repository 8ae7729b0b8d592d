package battery

import (
	"fmt"

	"repro/internal/simtime"
)

// Store is the node-facing energy storage abstraction: the plain
// rechargeable Battery implements it, and Hybrid adds a supercapacitor
// buffer in front of the battery — the extension the paper's related
// work (ref. [39]) motivates and leaves open.
type Store interface {
	// Charge stores up to the given energy, returning the accepted part.
	Charge(now simtime.Time, joules float64) float64
	// Discharge draws up to the given energy, returning the supplied part.
	Discharge(now simtime.Time, joules float64) float64
	// CanSupply reports whether the store holds at least the given energy.
	CanSupply(joules float64) bool
	// Stored returns the usable energy currently held, in joules.
	Stored() float64
	// SoC returns the battery's state of charge (fraction of original
	// battery capacity) — the quantity the degradation model cares about.
	SoC() float64
	// SetChargeLimit sets the protocol's theta cap on the battery.
	SetChargeLimit(theta float64)
	// Degradation returns the battery's capacity fade at the instant.
	Degradation(now simtime.Time) float64
	// Damage returns the battery's full degradation breakdown.
	Damage(now simtime.Time) Breakdown
	// AtEoL reports whether the battery reached end of life.
	AtEoL(now simtime.Time) bool
	// AppendTransitions appends the reportable SoC transitions to dst,
	// clears the pending list, and returns dst.
	AppendTransitions(dst []Transition) []Transition
}

var _ Store = (*Battery)(nil)

// Hybrid pairs a supercapacitor with a battery: harvested energy fills
// the supercapacitor first and overflows into the battery; loads drain
// the supercapacitor first and fall back to the battery. Transmission
// dips that fit in the supercapacitor never touch the battery at all,
// suppressing cycle aging — at the cost of the supercapacitor's
// self-discharge leak.
type Hybrid struct {
	batt *Battery

	capJ   float64 // supercapacitor capacity
	stored float64 // supercapacitor charge
	leakW  float64 // self-discharge, watts

	lastLeak simtime.Time
}

var _ Store = (*Hybrid)(nil)

// NewHybrid wraps the battery with a supercapacitor of the given
// capacity (joules) and self-discharge leak (watts). Supercapacitors
// leak orders of magnitude faster than batteries, so leakW should be
// non-trivial (a few percent of capacity per hour is typical).
func NewHybrid(batt *Battery, capJ, leakW float64) (*Hybrid, error) {
	if batt == nil {
		return nil, fmt.Errorf("battery: hybrid needs a battery")
	}
	if capJ <= 0 {
		return nil, fmt.Errorf("battery: supercap capacity %v must be positive", capJ)
	}
	if leakW < 0 {
		return nil, fmt.Errorf("battery: negative supercap leak %v", leakW)
	}
	return &Hybrid{batt: batt, capJ: capJ, leakW: leakW}, nil
}

// Battery exposes the wrapped battery (for result reporting).
func (h *Hybrid) Battery() *Battery { return h.batt }

// SupercapStored returns the supercapacitor's current charge in joules.
func (h *Hybrid) SupercapStored() float64 {
	return h.stored
}

// applyLeak integrates the supercapacitor's self-discharge up to now.
func (h *Hybrid) applyLeak(now simtime.Time) {
	if now <= h.lastLeak {
		return
	}
	dt := now.Sub(h.lastLeak).Seconds()
	h.lastLeak = now
	h.stored = max(0, h.stored-h.leakW*dt)
}

// Charge implements Store: supercapacitor first, battery overflow.
func (h *Hybrid) Charge(now simtime.Time, joules float64) float64 {
	h.applyLeak(now)
	if joules <= 0 {
		return 0
	}
	toCap := min(joules, h.capJ-h.stored)
	h.stored += toCap
	return toCap + h.batt.Charge(now, joules-toCap)
}

// Discharge implements Store: supercapacitor first, battery fallback.
func (h *Hybrid) Discharge(now simtime.Time, joules float64) float64 {
	h.applyLeak(now)
	if joules <= 0 {
		return 0
	}
	fromCap := min(joules, h.stored)
	h.stored -= fromCap
	return fromCap + h.batt.Discharge(now, joules-fromCap)
}

// CanSupply implements Store over the combined charge.
func (h *Hybrid) CanSupply(joules float64) bool {
	return h.stored+h.batt.Stored() >= joules
}

// Stored implements Store: the combined usable energy.
func (h *Hybrid) Stored() float64 { return h.stored + h.batt.Stored() }

// SoC implements Store: the battery's state of charge (the
// supercapacitor does not age the way Eq. 1-4 model).
func (h *Hybrid) SoC() float64 { return h.batt.SoC() }

// SetChargeLimit implements Store: theta constrains the battery only.
func (h *Hybrid) SetChargeLimit(theta float64) { h.batt.SetChargeLimit(theta) }

// Degradation implements Store.
func (h *Hybrid) Degradation(now simtime.Time) float64 { return h.batt.Degradation(now) }

// Damage implements Store.
func (h *Hybrid) Damage(now simtime.Time) Breakdown { return h.batt.Damage(now) }

// AtEoL implements Store.
func (h *Hybrid) AtEoL(now simtime.Time) bool { return h.batt.AtEoL(now) }

// AppendTransitions implements Store.
func (h *Hybrid) AppendTransitions(dst []Transition) []Transition {
	return h.batt.AppendTransitions(dst)
}
