// Package battery implements the lithium-ion battery degradation model of
// Xu et al. (IEEE Trans. Smart Grid 2016) in the parameterization used by
// the paper (Eq. 1-4): calendar aging, rainflow-counted cycle aging, and
// the SEI-film nonlinear capacity-fade transform. It also provides the
// Battery state machine used by the simulator, and the
// compressed state-of-charge trace encoding that nodes piggy-back on data
// packets (Sec. III-B of the paper).
//
// A Battery enforces theta and accounts its own degradation, and it
// alone decides when a minute may skip that accounting: Battery.Minutes
// and Battery.Step apply a node's energy balance minute by minute with
// the charge spans and falling-run collapse they prove, leaving every
// observable exactly as one Charge or Discharge per minute would.
package battery

import (
	"fmt"
	"math"

	"repro/internal/simtime"
)

// Model holds the battery-specific degradation constants of Eq. (1)-(4).
// The zero value is not usable; use DefaultModel or fill every field.
type Model struct {
	// K1 is the calendar time-stress coefficient in 1/second (Eq. 1).
	K1 float64
	// K2 is the SoC stress exponent (Eq. 1).
	K2 float64
	// K3 is the reference state of charge (Eq. 1).
	K3 float64
	// K4 is the temperature stress coefficient (Eq. 1 and 2).
	K4 float64
	// K5 is the reference temperature in Celsius (Eq. 1 and 2).
	K5 float64
	// K6 is the linearized cycle stress coefficient (Eq. 2).
	K6 float64
	// AlphaSEI is the share of capacity consumed by SEI film formation
	// (Eq. 4).
	AlphaSEI float64
	// KSEI is the SEI acceleration factor (the constant k of Eq. 4).
	KSEI float64
	// EoLThreshold is the capacity-fade fraction at which the battery is
	// considered at end of life (typically 0.2).
	EoLThreshold float64
}

// DefaultModel returns the constants used throughout the evaluation,
// following Xu et al. [13] (LMO cell); K6 is calibrated as described in
// DESIGN.md so that cycle aging stays well below calendar aging at the
// paper's operating point.
func DefaultModel() Model {
	return Model{
		K1:           4.14e-10,
		K2:           1.04,
		K3:           0.50,
		K4:           6.93e-2,
		K5:           25,
		K6:           3.5e-5,
		AlphaSEI:     5.75e-2,
		KSEI:         121,
		EoLThreshold: 0.20,
	}
}

// Validate reports the first implausible constant in the model.
func (m Model) Validate() error {
	switch {
	case m.K1 <= 0:
		return fmt.Errorf("battery: K1 = %v must be positive", m.K1)
	case m.K3 < 0 || m.K3 > 1:
		return fmt.Errorf("battery: K3 = %v must be a SoC in [0,1]", m.K3)
	case m.K6 < 0:
		return fmt.Errorf("battery: K6 = %v must be non-negative", m.K6)
	case m.AlphaSEI <= 0 || m.AlphaSEI >= 1:
		return fmt.Errorf("battery: AlphaSEI = %v must be in (0,1)", m.AlphaSEI)
	case m.KSEI <= 1:
		return fmt.Errorf("battery: KSEI = %v must exceed 1", m.KSEI)
	case m.EoLThreshold <= 0 || m.EoLThreshold >= 1:
		return fmt.Errorf("battery: EoLThreshold = %v must be in (0,1)", m.EoLThreshold)
	}
	return nil
}

// TempStress returns the temperature stress factor
// e^{K4 (T - K5)(273 + K5)/(273 + T)} shared by Eq. (1) and (2).
// tempC is the average internal battery temperature in Celsius.
func (m Model) TempStress(tempC float64) float64 {
	return math.Exp(m.K4 * (tempC - m.K5) * (273 + m.K5) / (273 + tempC))
}

// CalendarAging returns D_cal per Eq. (1): the linear degradation due to
// the passage of time. elapsed is the battery age, tempC the average
// temperature, meanSoC the average SoC across charge-discharge cycles.
func (m Model) CalendarAging(elapsed simtime.Duration, tempC, meanSoC float64) float64 {
	seconds := elapsed.Seconds()
	if seconds <= 0 {
		return 0
	}
	return m.K1 * seconds * math.Exp(m.K2*(meanSoC-m.K3)) * m.TempStress(tempC)
}

// StressCache memoizes the model's exponential stress factors for the
// constant-temperature operation the simulator runs (the
// paper considers insulated batteries at a fixed 25 C). Degradation is
// queried on every battery charge/discharge — once per simulated minute
// per node — and each query would otherwise re-evaluate the same
// e^{K4 ...} temperature stress and, usually, the same e^{K2 (phi-K3)}
// SoC stress. The cache removes those math.Exp calls from the hot path
// while returning bit-identical results.
//
// A StressCache belongs to one battery tracker; it is not safe for
// concurrent use.
type StressCache struct {
	model      Model
	tempStress float64

	socStress float64 // e^{K2 (socAt - K3)}, valid when socValid
	socAt     float64
	socValid  bool

	// socStressMax is the largest SoC stress factor any mean SoC in [0,1]
	// can produce: the exponential is monotone, so the maximum sits at an
	// endpoint (which one depends on the sign of K2).
	socStressMax float64
}

// NewStressCache returns a cache for the given model pinned at a fixed
// average battery temperature in Celsius.
func NewStressCache(m Model, tempC float64) *StressCache {
	return &StressCache{
		model:        m,
		tempStress:   m.TempStress(tempC),
		socStressMax: math.Max(math.Exp(m.K2*(1-m.K3)), math.Exp(-m.K2*m.K3)),
	}
}

// SocStressMax returns the precomputed upper bound of the SoC stress
// factor over all mean SoC values in [0,1].
func (c *StressCache) SocStressMax() float64 { return c.socStressMax }

// TempStress returns the cached temperature stress factor.
func (c *StressCache) TempStress() float64 { return c.tempStress }

// CalendarAging is Model.CalendarAging at the cached temperature, with
// the SoC stress factor memoized on its last operand (the cycle-mean SoC
// drifts slowly between consecutive queries).
func (c *StressCache) CalendarAging(elapsed simtime.Duration, meanSoC float64) float64 {
	seconds := elapsed.Seconds()
	if seconds <= 0 {
		return 0
	}
	if !c.socValid || meanSoC != c.socAt {
		c.socStress = math.Exp(c.model.K2 * (meanSoC - c.model.K3))
		c.socAt = meanSoC
		c.socValid = true
	}
	return c.model.K1 * seconds * c.socStress * c.tempStress
}

// CycleAgingRaw maps a raw rainflow sum (eta·delta·phi over cycles) to
// D_cyc per Eq. (2) at the cached temperature.
func (c *StressCache) CycleAgingRaw(raw float64) float64 {
	return raw * c.model.K6 * c.tempStress
}

// CycleAging returns D_cyc per Eq. (2): the sum over rainflow-counted
// cycles of eta * delta * phi * K6 * tempStress.
func (m Model) CycleAging(cycles []Cycle, tempC float64) float64 {
	stress := m.TempStress(tempC)
	var sum float64
	for _, c := range cycles {
		sum += m.CycleTerm(c, stress)
	}
	return sum
}

// CycleTerm returns one cycle's contribution to Eq. (2) given a
// precomputed temperature stress factor.
func (m Model) CycleTerm(c Cycle, tempStress float64) float64 {
	return c.Count * c.Range * c.Mean * m.K6 * tempStress
}

// Nonlinear maps the linear degradation D_L (Eq. 3) to the observed
// capacity fade D per Eq. (4), accounting for SEI film formation:
//
//	D = 1 - alpha e^{-KSEI D_L} - (1 - alpha) e^{-D_L}
func (m Model) Nonlinear(linear float64) float64 {
	if linear <= 0 {
		return 0
	}
	return 1 - m.AlphaSEI*math.Exp(-m.KSEI*linear) - (1-m.AlphaSEI)*math.Exp(-linear)
}

// InvertNonlinear returns the linear degradation D_L that produces the
// observed capacity fade d under Eq. (4), via bisection. It returns an
// error if d is outside [0, 1).
func (m Model) InvertNonlinear(d float64) (float64, error) {
	if d < 0 || d >= 1 {
		return 0, fmt.Errorf("battery: capacity fade %v outside [0,1)", d)
	}
	if d == 0 {
		return 0, nil
	}
	lo, hi := 0.0, 1.0
	for m.Nonlinear(hi) < d {
		hi *= 2
		if hi > 1e6 {
			return 0, fmt.Errorf("battery: cannot invert fade %v", d)
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if m.Nonlinear(mid) < d {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Degradation combines Eq. (1)-(4): the observed capacity fade after
// elapsed time with the given cycle history and mean cycle SoC.
func (m Model) Degradation(elapsed simtime.Duration, cycles []Cycle, tempC, meanSoC float64) float64 {
	linear := m.CalendarAging(elapsed, tempC, meanSoC) + m.CycleAging(cycles, tempC)
	return m.Nonlinear(linear)
}

// PredictCalendarLifespan returns how long a battery held at the given
// mean SoC and temperature lasts until the EoL threshold, ignoring cycle
// aging. Useful for sanity checks and capacity planning.
func (m Model) PredictCalendarLifespan(tempC, meanSoC float64) (simtime.Duration, error) {
	linearAtEoL, err := m.InvertNonlinear(m.EoLThreshold)
	if err != nil {
		return 0, err
	}
	rate := m.K1 * math.Exp(m.K2*(meanSoC-m.K3)) * m.TempStress(tempC) // per second
	if rate <= 0 {
		return 0, fmt.Errorf("battery: non-positive calendar aging rate")
	}
	seconds := linearAtEoL / rate
	return simtime.Duration(seconds * float64(simtime.Second)), nil
}
