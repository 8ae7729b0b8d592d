package energy

import (
	"math/rand/v2"

	"repro/internal/simtime"
)

// Forecaster predicts per-window harvested energy, the on-sensor stand-in
// for the PV-forecast models of the paper's reference [22]. Forecasters
// learn only from locally observable history (Observe); the simulator
// feeds each node's forecaster the energy its own panel actually
// harvested.
type Forecaster interface {
	// ForecastWindows predicts the energy in joules harvested in each of
	// n consecutive windows of length window starting at t. The returned
	// slice may be the forecaster's internal buffer, overwritten by the
	// next ForecastWindows call: callers must not retain it.
	ForecastWindows(t simtime.Time, window simtime.Duration, n int) []float64
	// Observe records that energyJ joules were actually harvested during
	// [from, to), so learning forecasters can adapt.
	Observe(from, to simtime.Time, energyJ float64)
}

// Perfect is an oracle forecaster that returns the source's actual
// generation. It isolates protocol behaviour from forecast error in
// ablation experiments.
type Perfect struct {
	Source Source

	buf []float64 // reused across ForecastWindows calls
}

var _ Forecaster = (*Perfect)(nil)

// ForecastWindows implements Forecaster.
func (p *Perfect) ForecastWindows(t simtime.Time, window simtime.Duration, n int) []float64 {
	out := p.reserve(n)
	for i := range out {
		from := t.Add(simtime.Duration(i) * window)
		out[i] = p.Source.Energy(from, from.Add(window))
	}
	return out
}

// Observe implements Forecaster; the oracle has nothing to learn.
func (p *Perfect) Observe(simtime.Time, simtime.Time, float64) {}

func (p *Perfect) reserve(n int) []float64 {
	if cap(p.buf) < n {
		p.buf = make([]float64, n)
	}
	p.buf = p.buf[:n]
	return p.buf
}

// Noisy wraps the oracle with multiplicative Gaussian error of the given
// relative standard deviation, for forecast-quality ablations.
type Noisy struct {
	inner  Perfect
	relStd float64
	rng    *rand.Rand
}

var _ Forecaster = (*Noisy)(nil)

// NewNoisy returns a noisy oracle forecaster seeded deterministically.
func NewNoisy(src Source, relStd float64, seed uint64) *Noisy {
	return &Noisy{
		inner:  Perfect{Source: src},
		relStd: relStd,
		rng:    rand.New(rand.NewPCG(seed, 0xf04eca57)),
	}
}

// ForecastWindows implements Forecaster.
func (f *Noisy) ForecastWindows(t simtime.Time, window simtime.Duration, n int) []float64 {
	out := f.inner.ForecastWindows(t, window, n)
	for i := range out {
		out[i] = max(0, out[i]*(1+f.relStd*f.rng.NormFloat64()))
	}
	return out
}

// Observe implements Forecaster.
func (f *Noisy) Observe(simtime.Time, simtime.Time, float64) {}

// minutesPerDay is the resolution of the DiurnalEWMA profile.
const minutesPerDay = 24 * 60

// DiurnalEWMA is the default on-sensor forecaster: it maintains an
// exponentially weighted moving average of observed power for every
// minute of the day and predicts a window's energy as the profile mean
// over the window. It uses only locally available history, matching the
// constraints the paper places on node-side forecasting.
type DiurnalEWMA struct {
	alpha   float64
	profile [minutesPerDay]float64
	seen    [minutesPerDay]bool
	buf     []float64 // reused across ForecastWindows calls
}

var _ Forecaster = (*DiurnalEWMA)(nil)

// NewDiurnalEWMA returns an empty profile with the given smoothing factor
// (weight of the newest observation); alpha is clamped into (0,1].
func NewDiurnalEWMA(alpha float64) *DiurnalEWMA {
	return &DiurnalEWMA{alpha: min(1, max(1e-3, alpha))}
}

// NewDiurnalEWMABank returns n independent forecasters backed by one
// contiguous allocation. A profile is ~13 KB, so a large simulation
// constructing one per node pays thousands of separate allocations (and
// the garbage collector tracks as many objects) for state with
// identical lifetime; the bank form is one slab. The elements must not
// be copied once observations start (the slices/arrays inside are
// per-element state), which nodes never do — each keeps a pointer.
func NewDiurnalEWMABank(alpha float64, n int) []DiurnalEWMA {
	bank := make([]DiurnalEWMA, n)
	a := min(1, max(1e-3, alpha))
	for i := range bank {
		bank[i].alpha = a
	}
	return bank
}

// Observe implements Forecaster: the average power over [from, to) is
// folded into every minute-of-day slot the interval touches.
//
// Each slot's EWMA update is weighted by the slot's share of the
// observation — the overlap divided by min(interval length, slot
// length). An interval contained in a single slot therefore keeps full
// weight, and a fully covered interior slot of a long interval does
// too, but a short observation straddling a minute boundary no longer
// updates both slots as if it covered each of them fully: its evidence
// is split in proportion to the overlap. Slots with negligible
// coverage (weight below 1e-6) are skipped.
func (f *DiurnalEWMA) Observe(from, to simtime.Time, energyJ float64) {
	if to <= from {
		return
	}
	const minuteT = simtime.Time(simtime.Minute)
	if from >= 0 && from%minuteT == 0 && to-from == minuteT {
		// Fast path for the integrator's dominant call shape: exactly
		// one full slot. Weight is exactly 1 (so a == alpha) and the
		// observation length is exactly 60 s; both expressions below are
		// bit-identical to the general path.
		f.ObserveFullSlot(int(int64(from/minuteT)%minutesPerDay), energyJ)
		return
	}
	obsLen := to.Sub(from)
	power := energyJ / obsLen.Seconds()
	denom := obsLen
	if denom > simtime.Minute {
		denom = simtime.Minute
	}
	start := int64(from / minuteT)
	end := int64((to - 1) / minuteT)
	for m := start; m <= end; m++ {
		lo, hi := from, to
		if slotStart := simtime.Time(m) * minuteT; slotStart > lo {
			lo = slotStart
		}
		if slotEnd := simtime.Time(m+1) * minuteT; slotEnd < hi {
			hi = slotEnd
		}
		w := float64(hi.Sub(lo)) / float64(denom)
		if w < 1e-6 {
			continue
		}
		slot := int(m % minutesPerDay)
		if !f.seen[slot] {
			f.profile[slot] = power
			f.seen[slot] = true
			continue
		}
		a := f.alpha * w
		f.profile[slot] = a*power + (1-a)*f.profile[slot]
	}
}

// ObserveFullSlot folds a whole-minute observation into the given
// minute-of-day slot. It is the Observe fast path with the slot index
// already computed by the caller (the node integrator tracks the minute
// cursor anyway) and performs the identical arithmetic.
func (f *DiurnalEWMA) ObserveFullSlot(slot int, energyJ float64) {
	power := energyJ / 60.0
	if !f.seen[slot] {
		f.profile[slot] = power
		f.seen[slot] = true
		return
	}
	f.profile[slot] = f.alpha*power + (1-f.alpha)*f.profile[slot]
}

// FoldFullSlots folds count consecutive whole-minute observations into
// the profile starting at the given minute-of-day slot: pows[j] is the
// harvested power of slot slot+j, and each fold performs exactly
// ObserveFullSlot(slot+j, pows[j]*60.0) — the energy = power·60 s,
// power = energy/60 s round trip included, so the result is
// bit-identical to the per-minute calls it replaces. The node
// integrator folds its whole minutes up to the end of a day with one
// call and Prime folds one training day per call; neither crosses a day
// boundary, so slot+len(pows) stays within the day.
func (f *DiurnalEWMA) FoldFullSlots(slot int, pows []float64) {
	a := f.alpha
	for j, p := range pows {
		power := (p * 60.0) / 60.0
		s := slot + j
		if !f.seen[s] {
			f.profile[s] = power
			f.seen[s] = true
			continue
		}
		f.profile[s] = a*power + (1-a)*f.profile[s]
	}
}

// ForecastWindows implements Forecaster. Consecutive windows are walked
// with one running minute cursor; whole interior minutes use the exact
// constant 60 s instead of re-deriving it by division (a full simulated
// minute is exactly 60.0 seconds, so the result is bit-identical).
func (f *DiurnalEWMA) ForecastWindows(t simtime.Time, window simtime.Duration, n int) []float64 {
	if cap(f.buf) < n {
		f.buf = make([]float64, n)
	}
	f.buf = f.buf[:n]
	out := f.buf
	const minuteT = simtime.Time(simtime.Minute)
	if window == simtime.Minute && t >= 0 {
		// One-minute windows (the paper's configuration) tile the slot
		// grid with a fixed offset: every window splits into the same
		// head/tail fractions of two adjacent slots, so the boundary
		// seconds are computed once. An aligned window is exactly one
		// slot. Both shapes produce the sums of the general loop below
		// term for term.
		minute := int64(t / minuteT)
		slot := int(minute % minutesPerDay)
		if t == simtime.Time(minute)*minuteT {
			for i := range out {
				out[i] = f.profile[slot] * 60.0
				slot++
				if slot == minutesPerDay {
					slot = 0
				}
			}
			return out
		}
		head := (simtime.Time(minute+1) * minuteT).Sub(t).Seconds()
		tail := t.Sub(simtime.Time(minute) * minuteT).Seconds()
		for i := range out {
			next := slot + 1
			if next == minutesPerDay {
				next = 0
			}
			out[i] = f.profile[slot]*head + f.profile[next]*tail
			slot = next
		}
		return out
	}
	for i := range out {
		from := t.Add(simtime.Duration(i) * window)
		to := from.Add(window)
		var joules float64
		cursor := from
		minute := int64(from / minuteT)
		for cursor < to {
			next := simtime.Time(minute+1) * minuteT
			var secs float64
			if next <= to && cursor == simtime.Time(minute)*minuteT {
				secs = 60.0
			} else {
				if next > to {
					next = to
				}
				secs = next.Sub(cursor).Seconds()
			}
			joules += f.profile[int(minute%minutesPerDay)] * secs
			cursor = next
			minute++
		}
		out[i] = joules
	}
	return out
}

// Prime trains the profile by replaying the source for the given number
// of days before deployment, emulating the paper's offline training at
// the gateway. Each training observation is exactly one full minute
// slot, so a MinuteSource is folded a day at a time with FoldFullSlots,
// the Observe fast path's arithmetic; any other source is replayed
// through Observe minute by minute.
func (f *DiurnalEWMA) Prime(src Source, days int) {
	if ms, ok := src.(MinuteSource); ok {
		for d := 0; d < days; d++ {
			f.FoldFullSlots(0, ms.DayPowers(int64(d)))
		}
		return
	}
	for d := 0; d < days; d++ {
		for m := 0; m < minutesPerDay; m++ {
			from := simtime.Time(d*minutesPerDay+m) * simtime.Time(simtime.Minute)
			to := from.Add(simtime.Minute)
			f.Observe(from, to, src.Energy(from, to))
		}
	}
}
