package energy

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/simtime"
)

// oracleEnergy is the pre-cache interval integral: walk the span minute
// by minute and accumulate peakW · trace · localFactor · seconds — the
// exact expression and evaluation order the original Energy loop used.
func oracleEnergy(s *nodeSource, from, to simtime.Time) float64 {
	if to <= from {
		return 0
	}
	if from < 0 {
		from = 0
		if to <= from {
			return 0
		}
	}
	const minuteT = simtime.Time(simtime.Minute)
	var total float64
	cursor := from
	minute := int64(from / minuteT)
	for cursor < to {
		next := simtime.Time(minute+1) * minuteT
		if next > to {
			next = to
		}
		p := s.peakW * s.trace.At(minute) * s.localFactor(minute)
		total += p * next.Sub(cursor).Seconds()
		cursor = next
		minute++
	}
	return total
}

// TestEnergyPrefixMatchesMinuteOracle drives randomized interval queries
// against the per-minute oracle: every span, from a fraction of a minute
// to three days, must be bit-identical, since Energy sums the cached
// per-minute energies in the oracle's order.
func TestEnergyPrefixMatchesMinuteOracle(t *testing.T) {
	yt := newTestTrace(t, 77)
	for _, variation := range []float64{0, 0.25} {
		// A fresh source per variation; queries jump around arbitrarily,
		// including backwards and across day and year boundaries, so the
		// rolling day cache refills in every direction.
		src := yt.NodeSource(3, 0.09, variation).(*nodeSource)
		rng := rand.New(rand.NewPCG(42, uint64(math.Float64bits(variation))))
		const msPerMinute = int64(simtime.Minute) / int64(simtime.Millisecond)
		horizonMs := int64(3*365*minutesPerDay) * msPerMinute
		for i := 0; i < 500; i++ {
			startMs := rng.Int64N(horizonMs)
			var spanMs int64
			if i%2 == 0 {
				spanMs = 1 + rng.Int64N(16*msPerMinute-1)
			} else {
				spanMs = 1 + rng.Int64N(3*minutesPerDay*msPerMinute)
			}
			from := simtime.Time(startMs * int64(simtime.Millisecond))
			to := from + simtime.Time(spanMs*int64(simtime.Millisecond))
			if got, want := src.Energy(from, to), oracleEnergy(src, from, to); got != want {
				t.Fatalf("variation %v span [%d, %d): Energy = %v, oracle = %v (must be bit-identical)",
					variation, from, to, got, want)
			}
		}
	}
}

// TestDayPowersMatchesMinuteOracle pins the day fill minute by minute
// against the one-minute expression peakW · At(m) · localFactor(m),
// bit for bit: with and without local variation, on days either side of
// the year-0/1 boundary (where the year factor and its clamp start), on
// a day where the clamp bites, and past the memoized years, night
// blocks included.
func TestDayPowersMatchesMinuteOracle(t *testing.T) {
	yt := newTestTrace(t, 21)
	// The clamp min(1, sample·f) bites only near noon of a bright day in
	// a year whose factor is near its +8% top: take year 0's brightest
	// day in the year with the largest factor.
	brightest, top := 0, 1
	for m, v := range yt.samples {
		if v > yt.samples[brightest] {
			brightest = m
		}
	}
	for y := range yt.yearFactor {
		if yt.yearFactor[y] > yt.yearFactor[top] {
			top = y
		}
	}
	clampDay := int64(top*365 + brightest/minutesPerDay)
	if float64(yt.samples[brightest])*yt.yearFactor[top] <= 1 {
		t.Fatalf("day %d does not clamp; pick another trace seed", clampDay)
	}
	days := []int64{0, 1, 172, 363, 364, 365, 366, clampDay, precomputedYears*365 + 7}
	for _, variation := range []float64{0, 0.25} {
		src := yt.NodeSource(11, 0.09, variation).(*nodeSource)
		var night, lit int
		for _, d := range days {
			pow := src.DayPowers(d)
			for m, got := range pow {
				minute := d*minutesPerDay + int64(m)
				want := src.peakW * yt.At(minute) * src.localFactor(minute)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("variation %v day %d minute %d: DayPowers = %v, oracle = %v (must be bit-identical)",
						variation, d, m, got, want)
				}
				if want == 0 {
					night++
				} else {
					lit++
				}
			}
		}
		if night == 0 || lit == 0 {
			t.Fatalf("variation %v: %d night and %d lit minutes; the oracle must cover both", variation, night, lit)
		}
	}
}

// TestPrimeFastPathsMatchObserveReplay: both Prime paths — the day-wise
// FoldFullSlots over a MinuteSource and the per-minute Observe walk of
// a plain Source — must leave the profile a hand-replayed Observe loop
// leaves, bit for bit, since each training observation is exactly one
// full minute slot.
func TestPrimeFastPathsMatchObserveReplay(t *testing.T) {
	yt := newTestTrace(t, 9)
	const days = 3

	fast := NewDiurnalEWMA(0.3)
	fast.Prime(yt.NodeSource(5, 0.09, 0.25), days)

	// Hide DayPowers so Prime takes the Observe walk.
	plain := NewDiurnalEWMA(0.3)
	plain.Prime(struct{ Source }{yt.NodeSource(5, 0.09, 0.25)}, days)

	// Replay training by hand: one Observe per simulated minute.
	slow := NewDiurnalEWMA(0.3)
	src := yt.NodeSource(5, 0.09, 0.25)
	for d := 0; d < days; d++ {
		for m := 0; m < minutesPerDay; m++ {
			from := simtime.Time(d*minutesPerDay+m) * simtime.Time(simtime.Minute)
			to := from.Add(simtime.Minute)
			slow.Observe(from, to, src.Energy(from, to))
		}
	}

	for m := 0; m < minutesPerDay; m++ {
		want := math.Float64bits(slow.profile[m])
		if math.Float64bits(fast.profile[m]) != want || fast.seen[m] != slow.seen[m] {
			t.Fatalf("slot %d: FoldFullSlots Prime %v (seen %v), Observe replay %v (seen %v)",
				m, fast.profile[m], fast.seen[m], slow.profile[m], slow.seen[m])
		}
		if math.Float64bits(plain.profile[m]) != want || plain.seen[m] != slow.seen[m] {
			t.Fatalf("slot %d: Observe-walk Prime %v (seen %v), Observe replay %v (seen %v)",
				m, plain.profile[m], plain.seen[m], slow.profile[m], slow.seen[m])
		}
	}
}

// TestForecastWindowsMinuteFastPath: the 1-minute fast path (aligned and
// unaligned starts) must reproduce the general minute-walk loop bit for
// bit, including day wrap-around of the slot cursor.
func TestForecastWindowsMinuteFastPath(t *testing.T) {
	f := NewDiurnalEWMA(0.3)
	rng := rand.New(rand.NewPCG(11, 3))
	for m := 0; m < minutesPerDay; m++ {
		f.ObserveFullSlot(m, rng.Float64()*6)
	}

	// general replays ForecastWindows' fallback loop for one window.
	general := func(from, to simtime.Time) float64 {
		const minuteT = simtime.Time(simtime.Minute)
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
		return joules
	}

	starts := []simtime.Time{
		0,
		simtime.Time(simtime.Minute) * 17, // aligned
		simtime.Time(simtime.Minute)*42 + simtime.Time(7500)*simtime.Time(simtime.Millisecond), // unaligned
		simtime.Time(simtime.Minute) * (minutesPerDay - 3),                                     // wraps midnight
		simtime.Time(simtime.Minute)*(minutesPerDay-3) + simtime.Time(simtime.Second),
	}
	for _, start := range starts {
		got := f.ForecastWindows(start, simtime.Minute, 8)
		for i, g := range got {
			from := start.Add(simtime.Duration(i) * simtime.Minute)
			if want := general(from, from.Add(simtime.Minute)); g != want {
				t.Fatalf("start %d window %d: fast path %v, general loop %v", start, i, g, want)
			}
		}
	}
}
