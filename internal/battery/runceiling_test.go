package battery

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/simtime"
)

// TestRunCeilingBoundsRisingRuns is RunCeiling's soundness check: for a
// random SoC history ending falling, flat or rising, every state of a
// random rising run that stays at or below vmax — and the history before
// the run's first push — must have Degradation(t) <= RunCeiling(end,
// vmax) at every age t <= end. Both signs of K2 are covered, since the
// bound takes the calendar stress at whichever end of the run maximizes
// it. The test also requires the bound to be tight when the run ends at
// vmax, so a ceiling of 1 cannot pass it.
func TestRunCeilingBoundsRisingRuns(t *testing.T) {
	negK2 := DefaultModel()
	negK2.K2 = -1.04
	models := []struct {
		name  string
		model Model
	}{{"default", DefaultModel()}, {"K2<0", negK2}}
	tight, tightRuns := 0, 0
	for _, m := range models {
		// Accelerated aging makes cycle aging a visible share of the fade.
		model := m.model
		model.K1 *= 40
		model.K6 *= 40
		for _, theta := range []float64{0.5, 1} {
			for _, dir := range []int{-1, 0, +1} {
				for trial := 0; trial < 150; trial++ {
					rng := rand.New(rand.NewPCG(uint64(trial), uint64(dir+2)*10+uint64(theta*2)))
					tr := NewTracker(model, 25)
					for _, v := range socHistory(rng, dir, theta) {
						tr.Push(v)
					}
					if got := tr.counter.dir; got != dir {
						t.Fatalf("history built for dir %d ends with dir %d", dir, got)
					}
					end := simtime.Duration(1+rng.IntN(5*365)) * simtime.Day
					ceil := tr.RunCeiling(end, theta)
					ages := []simtime.Duration{0, end / 3, simtime.Duration(rng.Int64N(int64(end))), end}
					check := func(step int) {
						t.Helper()
						for _, age := range ages {
							if d := tr.Degradation(age); d > ceil {
								t.Fatalf("%s theta %v dir %d trial %d step %d: Degradation(%v) = %.17g above RunCeiling = %.17g",
									m.name, theta, dir, trial, step, age, d, ceil)
							}
						}
					}
					check(0)
					run := risingRun(rng, tr.counter.last, theta)
					for i, v := range run {
						tr.Push(v)
						check(i + 1)
					}
					if len(run) > 0 && run[len(run)-1] == theta {
						tightRuns++
						if ceil-tr.Degradation(end) <= 1e-9 {
							tight++
						}
					}
				}
			}
		}
	}
	// With K2 >= 0 a run ending at vmax reaches the bound up to its float
	// margin unless the history's cycle-mean SoC sat above the run's.
	if tightRuns == 0 || tight < tightRuns/4 {
		t.Fatalf("bound tight in %d of %d runs ending at vmax; want at least a quarter", tight, tightRuns)
	}
}

// socHistory returns a random SoC walk in [0, theta] whose counter ends
// in the given direction: -1 falling, +1 rising below theta, 0 a flat
// history (one value repeated) with no direction yet.
func socHistory(rng *rand.Rand, dir int, theta float64) []float64 {
	if dir == 0 {
		h := make([]float64, 1+rng.IntN(4))
		v := rng.Float64() * theta
		for i := range h {
			h[i] = v
		}
		return h
	}
	h := []float64{rng.Float64() * theta}
	for n := rng.IntN(80); len(h) < n; {
		h = append(h, rng.Float64()*theta)
	}
	if dir < 0 {
		hi := theta * (0.5 + 0.5*rng.Float64())
		return append(h, hi, hi*rng.Float64())
	}
	// End rising, well below theta so the run has room to rise.
	lo := 0.4 * theta * rng.Float64()
	return append(h, lo, lo+(theta-lo)*(0.1+0.4*rng.Float64()))
}

// risingRun returns a sorted run of samples in [from, vmax], often
// ending exactly at vmax and with repeated values.
func risingRun(rng *rand.Rand, from, vmax float64) []float64 {
	if from >= vmax {
		return nil
	}
	run := make([]float64, 1+rng.IntN(40))
	for i := range run {
		run[i] = from + (vmax-from)*rng.Float64()
		if i > 0 && rng.IntN(6) == 0 {
			run[i] = run[i-1]
		}
	}
	slices.Sort(run)
	if rng.IntN(2) == 0 {
		run[len(run)-1] = vmax
	}
	return run
}

// TestRefreshSeesPushAtSameInstant: the battery's fade cache is keyed on
// the SoC-history revision as well as the age, so a read at the instant
// of the last refresh sees the fade after the pushes made since.
func TestRefreshSeesPushAtSameInstant(t *testing.T) {
	model := DefaultModel()
	model.K6 *= 1e4 // make the pushed cycle move the fade
	b, err := New(model, 1000, 0.2, 25)
	if err != nil {
		t.Fatal(err)
	}
	now := simtime.Time(30 * simtime.Day)
	b.Charge(now, 400)
	b.Discharge(now, 300)
	want := b.tracker.Degradation(simtime.Duration(now))
	if got := b.Degradation(now); got != want {
		t.Fatalf("Degradation after Charge+Discharge at one instant = %.17g, tracker says %.17g", got, want)
	}
	b.Charge(now, 1)
	want = b.tracker.Degradation(simtime.Duration(now))
	if got := b.CurrentMaxCapacity(now); got != 1000*(1-want) {
		t.Fatalf("CurrentMaxCapacity after a further push = %v, want %v", got, 1000*(1-want))
	}
}
