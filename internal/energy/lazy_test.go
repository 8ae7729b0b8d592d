package energy

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// eagerYearSamples is the whole-year synthesis loop the trace ran at
// construction before days were synthesized on demand: one weather
// draw per day, then one cloud step and one sample per minute, all 365
// days in order from a single PCG stream.
func eagerYearSamples(cfg SolarConfig) []float32 {
	samples := make([]float32, minutesPerYear)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x501a7))
	state := weatherClear
	cloud := 0.2
	for day := 0; day < 365; day++ {
		state = nextWeather(rng, state, cfg.WeatherPersistence)
		mu, sigma := cloudParams(state)
		daylight := 12 + cfg.DaylightAmplitudeHours*math.Sin(2*math.Pi*float64(day-80)/365)
		sunrise := 12 - daylight/2
		seasonal := 1 - cfg.SeasonalAmplitude + cfg.SeasonalAmplitude*(1+math.Sin(2*math.Pi*float64(day-80)/365))/2
		for m := 0; m < 24*60; m++ {
			cloud += 0.02*(mu-cloud) + sigma*rng.NormFloat64()
			cloud = min(1, max(0, cloud))
			hour := float64(m) / 60
			var clearSky float64
			if hour > sunrise && hour < sunrise+daylight {
				clearSky = math.Pow(math.Sin(math.Pi*(hour-sunrise)/daylight), 1.3)
			}
			p := seasonal * clearSky * (1 - cfg.CloudAttenuation*cloud)
			samples[day*24*60+m] = float32(p)
		}
	}
	return samples
}

// lazyTestConfigs are three seeds with non-default daylight and seasonal
// amplitudes, so a day-index or per-day-constant slip in the on-demand
// synthesis cannot hide behind the defaults.
func lazyTestConfigs() []SolarConfig {
	var cfgs []SolarConfig
	for i, seed := range []uint64{1, 77, 4242} {
		cfg := DefaultSolarConfig(seed)
		cfg.DaylightAmplitudeHours = 2 + 1.5*float64(i)
		cfg.SeasonalAmplitude = 0.1 + 0.2*float64(i)
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// freshTrace builds an uncached trace, so no earlier test has
// synthesized any of its days.
func freshTrace(t *testing.T, cfg SolarConfig) *YearTrace {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return newYearTrace(cfg)
}

// checkDay reads every minute of day through At and compares it, bit
// for bit, with the eager reference.
func checkDay(t *testing.T, yt *YearTrace, ref []float32, day int) {
	for m := day * minutesPerDay; m < (day+1)*minutesPerDay; m++ {
		if got, want := yt.At(int64(m)), float64(ref[m]); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("seed %d day %d minute %d: At = %v, eager = %v (must be bit-identical)",
				yt.cfg.Seed, day, m%minutesPerDay, got, want)
			return
		}
	}
}

// TestLazyTraceMatchesEagerSynthesis pins on-demand synthesis to the
// eager whole-year loop, bit for bit, whichever day a run reads first:
// days in ascending order, the last day first, and a shuffled order.
func TestLazyTraceMatchesEagerSynthesis(t *testing.T) {
	const days = minutesPerYear / minutesPerDay
	for _, cfg := range lazyTestConfigs() {
		ref := eagerYearSamples(cfg)
		shuffled := rand.New(rand.NewPCG(cfg.Seed, 9)).Perm(days)
		ascending := make([]int, days)
		for d := range ascending {
			ascending[d] = d
		}
		lastFirst := append([]int{days - 1}, ascending[:days-1]...)
		for name, order := range map[string][]int{
			"ascending": ascending, "day 364 first": lastFirst, "shuffled": shuffled,
		} {
			yt := freshTrace(t, cfg)
			if d := yt.done.Load(); d != 0 {
				t.Fatalf("%s: a fresh trace has %d days synthesized, want 0", name, d)
			}
			for _, day := range order {
				checkDay(t, yt, ref, day)
			}
			if t.Failed() {
				t.Fatalf("order %q diverged from the eager synthesis", name)
			}
		}
	}
}

// TestLazyTraceConcurrentReaders has four goroutines read one shared
// fresh trace in their own shuffled day orders; every sample must match
// the eager synthesis. Run it under -race.
func TestLazyTraceConcurrentReaders(t *testing.T) {
	const days = minutesPerYear / minutesPerDay
	cfg := lazyTestConfigs()[1]
	ref := eagerYearSamples(cfg)
	yt := freshTrace(t, cfg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		order := rand.New(rand.NewPCG(uint64(g), 31)).Perm(days)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, day := range order {
				checkDay(t, yt, ref, day)
			}
		}()
	}
	wg.Wait()
	if d := yt.done.Load(); d != days {
		t.Errorf("%d days synthesized after every day was read, want %d", d, days)
	}
}
