// Package energy provides the green-energy harvesting substrate: a
// deterministic synthetic solar-power trace with diurnal, seasonal and
// cloud-cover structure (standing in for the NREL measurement trace the
// paper replays), per-node spatial variation, and the very-short-term
// forecasters nodes use to predict per-window energy generation.
package energy

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/simtime"
)

// Source supplies harvested power for one node.
type Source interface {
	// Power returns the instantaneous harvested power in watts at t.
	Power(t simtime.Time) float64
	// Energy returns the energy in joules harvested during [from, to).
	Energy(from, to simtime.Time) float64
}

// MinuteSource is implemented by sources that can answer per-minute
// queries in O(1) from a precomputed cache. MinutePower(m) is
// bit-identical to Power anywhere inside minute m, and
// MinutePower(m) * 60.0 is bit-identical to Energy over the full
// minute — the contract the node integrator and forecaster priming
// fast paths rely on.
type MinuteSource interface {
	Source
	// MinutePower returns the harvested power in watts during the
	// absolute minute [m·1min, (m+1)·1min).
	MinutePower(minute int64) float64
	// DayPowers returns the per-minute powers of the given simulated
	// day, indexed by minute-of-day. The returned slice is the source's
	// internal cache: it is read-only and valid only until the next
	// call into the source.
	DayPowers(day int64) []float64
}

// minutesPerYear is the resolution of the base trace: one sample per
// minute over the simulated 365-day year.
const minutesPerYear = 365 * 24 * 60

// Weather states of the daily Markov chain.
const (
	weatherClear = iota
	weatherPartly
	weatherOvercast
	numWeatherStates
)

// SolarConfig parameterizes the synthetic year-long solar trace.
type SolarConfig struct {
	// Seed drives all randomness in the trace.
	Seed uint64
	// DaylightAmplitudeHours is the seasonal swing of the day length
	// around 12 h (≈3 h at mid latitudes).
	DaylightAmplitudeHours float64
	// SeasonalAmplitude is the seasonal swing of the clear-sky peak
	// around its annual mean, in [0,1).
	SeasonalAmplitude float64
	// CloudAttenuation is the maximum fraction of power removed by full
	// cloud cover.
	CloudAttenuation float64
	// WeatherPersistence is the probability that a day repeats the
	// previous day's weather state.
	WeatherPersistence float64
}

// DefaultSolarConfig returns a temperate mid-latitude configuration.
func DefaultSolarConfig(seed uint64) SolarConfig {
	return SolarConfig{
		Seed:                   seed,
		DaylightAmplitudeHours: 3,
		SeasonalAmplitude:      0.25,
		CloudAttenuation:       0.85,
		WeatherPersistence:     0.6,
	}
}

// Validate reports the first out-of-range parameter.
func (c SolarConfig) Validate() error {
	switch {
	case c.DaylightAmplitudeHours < 0 || c.DaylightAmplitudeHours >= 12:
		return fmt.Errorf("energy: daylight amplitude %v h outside [0,12)", c.DaylightAmplitudeHours)
	case c.SeasonalAmplitude < 0 || c.SeasonalAmplitude >= 1:
		return fmt.Errorf("energy: seasonal amplitude %v outside [0,1)", c.SeasonalAmplitude)
	case c.CloudAttenuation < 0 || c.CloudAttenuation > 1:
		return fmt.Errorf("energy: cloud attenuation %v outside [0,1]", c.CloudAttenuation)
	case c.WeatherPersistence < 0 || c.WeatherPersistence > 1:
		return fmt.Errorf("energy: weather persistence %v outside [0,1]", c.WeatherPersistence)
	}
	return nil
}

// YearTrace is the shared normalized (peak ≈ 1) solar-power profile of
// the deployment area: one sample per minute for 365 days. Node sources
// scale it to their panel size and add local cloud variation. A YearTrace
// is immutable after construction and safe for concurrent use.
type YearTrace struct {
	cfg     SolarConfig
	samples []float32
	// yearFactor memoizes the per-year variability factor of At for the
	// first precomputedYears years; later years (beyond any plausible
	// simulation horizon) fall back to hashing on demand.
	yearFactor []float64
}

// precomputedYears bounds the memoized year-variability table; the
// simulator caps runs at a few decades, so 64 years covers every query.
const precomputedYears = 64

// traceCache shares YearTrace construction across simulations: the
// trace is immutable and fully determined by its config, so every
// variant of a sweep (and every iteration of a benchmark) can reuse the
// same object instead of re-synthesizing 525600 samples. Bounded to a
// handful of configs; eviction is oldest-first.
var traceCache struct {
	sync.Mutex
	entries map[SolarConfig]*YearTrace
	order   []SolarConfig
}

const traceCacheMax = 8

// NewYearTrace synthesizes the deployment-wide trace. The construction is
// deterministic in the config; identical configs may share one cached
// immutable trace.
func NewYearTrace(cfg SolarConfig) (*YearTrace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	traceCache.Lock()
	if yt, ok := traceCache.entries[cfg]; ok {
		traceCache.Unlock()
		return yt, nil
	}
	traceCache.Unlock()
	yt, err := synthesizeYearTrace(cfg)
	if err != nil {
		return nil, err
	}
	traceCache.Lock()
	if traceCache.entries == nil {
		traceCache.entries = make(map[SolarConfig]*YearTrace)
	}
	if cached, ok := traceCache.entries[cfg]; ok {
		// Another goroutine synthesized the same config concurrently;
		// both results are identical, keep the first.
		yt = cached
	} else {
		if len(traceCache.order) >= traceCacheMax {
			delete(traceCache.entries, traceCache.order[0])
			traceCache.order = traceCache.order[1:]
		}
		traceCache.entries[cfg] = yt
		traceCache.order = append(traceCache.order, cfg)
	}
	traceCache.Unlock()
	return yt, nil
}

func synthesizeYearTrace(cfg SolarConfig) (*YearTrace, error) {
	yt := &YearTrace{cfg: cfg, samples: make([]float32, minutesPerYear)}
	yt.yearFactor = make([]float64, precomputedYears)
	yt.yearFactor[0] = 1
	for y := 1; y < precomputedYears; y++ {
		yt.yearFactor[y] = 0.92 + 0.16*hash01(cfg.Seed, uint64(y), 0x9e77)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x501a7))

	state := weatherClear
	cloud := 0.2 // Ornstein-Uhlenbeck cloudiness in [0,1]
	for day := 0; day < 365; day++ {
		state = nextWeather(rng, state, cfg.WeatherPersistence)
		mu, sigma := cloudParams(state)
		daylight := 12 + cfg.DaylightAmplitudeHours*math.Sin(2*math.Pi*float64(day-80)/365)
		sunrise := 12 - daylight/2
		seasonal := 1 - cfg.SeasonalAmplitude + cfg.SeasonalAmplitude*(1+math.Sin(2*math.Pi*float64(day-80)/365))/2
		for m := 0; m < 24*60; m++ {
			// Cloudiness evolves every minute, day and night, so mornings
			// start from the overnight weather.
			cloud += 0.02*(mu-cloud) + sigma*rng.NormFloat64()
			cloud = min(1, max(0, cloud))

			hour := float64(m) / 60
			var clearSky float64
			if hour > sunrise && hour < sunrise+daylight {
				clearSky = math.Pow(math.Sin(math.Pi*(hour-sunrise)/daylight), 1.3)
			}
			p := seasonal * clearSky * (1 - cfg.CloudAttenuation*cloud)
			yt.samples[day*24*60+m] = float32(p)
		}
	}
	return yt, nil
}

func nextWeather(rng *rand.Rand, state int, persistence float64) int {
	if rng.Float64() < persistence {
		return state
	}
	// Base distribution over the other states.
	switch r := rng.Float64(); {
	case r < 0.5:
		return weatherClear
	case r < 0.85:
		return weatherPartly
	default:
		return weatherOvercast
	}
}

func cloudParams(state int) (mu, sigma float64) {
	switch state {
	case weatherClear:
		return 0.08, 0.01
	case weatherPartly:
		return 0.45, 0.05
	default: // overcast
		return 0.9, 0.02
	}
}

// At returns the normalized power at an absolute minute index, wrapping
// across years with a small deterministic year-to-year factor.
func (yt *YearTrace) At(minute int64) float64 {
	if minute < 0 {
		return 0
	}
	year := minute / minutesPerYear
	idx := minute % minutesPerYear
	base := float64(yt.samples[idx])
	if year == 0 {
		return base
	}
	// Year-to-year variability of +-8%, memoized per year.
	var f float64
	if year < int64(len(yt.yearFactor)) {
		f = yt.yearFactor[year]
	} else {
		f = 0.92 + 0.16*hash01(yt.cfg.Seed, uint64(year), 0x9e77)
	}
	return min(1, base*f)
}

// Config returns the trace configuration.
func (yt *YearTrace) Config() SolarConfig { return yt.cfg }

// factorFor returns the year-to-year variability factor, memoized for
// the precomputed years and hashed on demand beyond them.
func (yt *YearTrace) factorFor(year int64) float64 {
	if year < int64(len(yt.yearFactor)) {
		return yt.yearFactor[year]
	}
	return 0.92 + 0.16*hash01(yt.cfg.Seed, uint64(year), 0x9e77)
}

// DayBase caches the trace's year-adjusted base powers — the common
// sub-expression of every node's per-day harvest-cache fill — for the
// two most recent simulated days, so the float32 conversion and
// year-factor clamp run once per (trace, day) instead of once per
// (node, day). Two slots keyed by day parity suffice: the simulator
// advances all its nodes through days monotonically, with cursors never
// more than one day apart.
//
// A DayBase is not safe for concurrent use; each simulation owns one.
type DayBase struct {
	trace *YearTrace
	day   [2]int64
	base  [2][]float64
	// zero marks 4-minute blocks whose base powers are all zero (night):
	// node fills write +0 there without evaluating the per-node local
	// cloud factor, which is exact because peakW·0·lf is +0 for any
	// finite positive peakW and non-negative lf.
	zero [2][]bool
}

// NewDayBase returns an empty day-base cache over the trace.
func (yt *YearTrace) NewDayBase() *DayBase {
	return &DayBase{trace: yt, day: [2]int64{-1, -1}}
}

// Day returns the base (normalized, year-adjusted) power of every minute
// of the given simulated day and the per-4-minute-block all-zero marks.
// The returned slices are the cache's internal storage: read-only, valid
// until the next Day call with a different day of the same parity.
func (db *DayBase) Day(day int64) (base []float64, zeroBlock []bool) {
	slot := int(day & 1)
	if db.day[slot] == day {
		return db.base[slot], db.zero[slot]
	}
	if db.base[slot] == nil {
		db.base[slot] = make([]float64, minutesPerDay)
		db.zero[slot] = make([]bool, minutesPerDay/4)
	}
	b := db.base[slot]
	start := day * minutesPerDay
	year := start / minutesPerYear
	samples := db.trace.samples[start%minutesPerYear : start%minutesPerYear+minutesPerDay]
	if year == 0 {
		for m := range b {
			b[m] = float64(samples[m])
		}
	} else {
		f := db.trace.factorFor(year)
		for m := range b {
			b[m] = min(1, float64(samples[m])*f)
		}
	}
	zb := db.zero[slot]
	for blk := range zb {
		m := blk * 4
		zb[blk] = b[m] == 0 && b[m+1] == 0 && b[m+2] == 0 && b[m+3] == 0
	}
	db.day[slot] = day
	return b, zb
}

// NodeSource derives a node's harvest source from the shared trace.
//
// peakW is the panel's peak electrical power (the paper sizes it so peak
// generation over one forecast window funds two transmissions).
// variation adds deterministic per-node, per-interval multiplicative
// noise of the given relative amplitude, emulating local cloud cover and
// shading across the deployment area.
func (yt *YearTrace) NodeSource(nodeID int, peakW, variation float64) Source {
	return &nodeSource{
		trace:     yt,
		nodeID:    uint64(nodeID),
		peakW:     peakW,
		variation: min(1, max(0, variation)),
		cacheDay:  -1,
	}
}

type nodeSource struct {
	trace     *YearTrace
	nodeID    uint64
	peakW     float64
	variation float64
	db        *DayBase // shared day-base cache; nil falls back to per-node fills

	// Rolling one-day harvest cache (see DESIGN.md "Harvest day
	// cache"): minuteP holds the harvested power of every minute of
	// cacheDay, computed with exactly the per-minute expression the
	// straightforward loop uses. The cache is built lazily once per
	// simulated day; the simulator advances through days monotonically,
	// so one day of state is enough.
	cacheDay int64
	minuteP  []float64 // len minutesPerDay
}

var _ MinuteSource = (*nodeSource)(nil)

// SetDayBase attaches a shared day-base cache; subsequent per-day fills
// read the year-adjusted base powers from it instead of re-deriving them
// from the float32 trace. The fill expressions are unchanged term for
// term, so the cached powers are bit-identical with or without it.
func (s *nodeSource) SetDayBase(db *DayBase) { s.db = db }

// SetMinuteBuf hands the rolling cache a caller-owned backing slice of
// length minutesPerDay, letting a simulation carve per-node views out
// of one contiguous slab instead of paying a lazy ~11.5 KB allocation
// per node inside ensureDay. Ignored once the cache already has a
// buffer (the fill logic is unaffected either way — only the backing
// store changes). The caller must not share one slice between sources.
func (s *nodeSource) SetMinuteBuf(buf []float64) {
	if s.minuteP == nil && len(buf) == minutesPerDay {
		s.minuteP = buf
	}
}

// ensureDay (re)fills the rolling cache for the given simulated day.
func (s *nodeSource) ensureDay(day int64) {
	if s.cacheDay == day {
		return
	}
	if s.minuteP == nil {
		s.minuteP = make([]float64, minutesPerDay)
	}
	if s.db != nil {
		s.fillFromBase(day)
		s.cacheDay = day
		return
	}
	base := day * minutesPerDay
	// A day never straddles a year boundary (the year is a whole number
	// of days), so the base-trace samples and the year factor are fixed
	// for the whole fill; reading them directly inlines YearTrace.At.
	year := base / minutesPerYear
	samples := s.trace.samples[base%minutesPerYear : base%minutesPerYear+minutesPerDay]
	var f float64
	if year > 0 {
		if year < int64(len(s.trace.yearFactor)) {
			f = s.trace.yearFactor[year]
		} else {
			f = 0.92 + 0.16*hash01(s.trace.cfg.Seed, uint64(year), 0x9e77)
		}
	}
	// The fill is split by (variation, year) so the inner loops carry no
	// per-minute branches; every variant evaluates the same expression
	// peakW * at * lf in the same order as the one-minute query path.
	switch {
	case s.variation == 0 && year == 0:
		for m := 0; m < minutesPerDay; m++ {
			s.minuteP[m] = s.peakW * float64(samples[m]) * 1.0
		}
	case s.variation == 0:
		for m := 0; m < minutesPerDay; m++ {
			s.minuteP[m] = s.peakW * min(1, float64(samples[m])*f) * 1.0
		}
	default:
		// localFactor is constant over 4-minute blocks; day boundaries
		// are block-aligned, so one hash serves four minutes.
		seed := s.trace.cfg.Seed
		nid := s.nodeID + 0x5bd1e995
		block := uint64(base >> 2)
		for m := 0; m < minutesPerDay; m += 4 {
			lf := 1 + s.variation*(2*hash01(seed, nid, block)-1)
			block++
			if year == 0 {
				s.minuteP[m] = s.peakW * float64(samples[m]) * lf
				s.minuteP[m+1] = s.peakW * float64(samples[m+1]) * lf
				s.minuteP[m+2] = s.peakW * float64(samples[m+2]) * lf
				s.minuteP[m+3] = s.peakW * float64(samples[m+3]) * lf
			} else {
				s.minuteP[m] = s.peakW * min(1, float64(samples[m])*f) * lf
				s.minuteP[m+1] = s.peakW * min(1, float64(samples[m+1])*f) * lf
				s.minuteP[m+2] = s.peakW * min(1, float64(samples[m+2])*f) * lf
				s.minuteP[m+3] = s.peakW * min(1, float64(samples[m+3])*f) * lf
			}
		}
	}
	s.cacheDay = day
}

// fillFromBase fills the per-minute cache from the shared day base.
// Every variant evaluates peakW * base * lf with the same operand values
// and association as the trace-direct fill (base[m] is exactly
// float64(samples[m]) in year 0 and min(1, float64(samples[m])*f)
// after), so the result is bit-identical. Blocks that are all zero skip
// the local-factor hash: the product is +0 either way.
func (s *nodeSource) fillFromBase(day int64) {
	base, zeroBlk := s.db.Day(day)
	if s.variation == 0 {
		for m := 0; m < minutesPerDay; m++ {
			s.minuteP[m] = s.peakW * base[m] * 1.0
		}
		return
	}
	seed := s.trace.cfg.Seed
	nid := s.nodeID + 0x5bd1e995
	block := uint64(day * minutesPerDay >> 2)
	for m := 0; m < minutesPerDay; m += 4 {
		if zeroBlk[m>>2] {
			s.minuteP[m], s.minuteP[m+1], s.minuteP[m+2], s.minuteP[m+3] = 0, 0, 0, 0
			block++
			continue
		}
		lf := 1 + s.variation*(2*hash01(seed, nid, block)-1)
		block++
		s.minuteP[m] = s.peakW * base[m] * lf
		s.minuteP[m+1] = s.peakW * base[m+1] * lf
		s.minuteP[m+2] = s.peakW * base[m+2] * lf
		s.minuteP[m+3] = s.peakW * base[m+3] * lf
	}
}

// MinutePower implements MinuteSource.
func (s *nodeSource) MinutePower(minute int64) float64 {
	if minute < 0 {
		return 0
	}
	s.ensureDay(minute / minutesPerDay)
	return s.minuteP[minute%minutesPerDay]
}

// DayPowers implements MinuteSource.
func (s *nodeSource) DayPowers(day int64) []float64 {
	s.ensureDay(day)
	return s.minuteP
}

// localFactor returns the node's multiplicative deviation for a 4-minute
// block (blocks give local clouds a short coherence time).
func (s *nodeSource) localFactor(minute int64) float64 {
	if s.variation == 0 {
		return 1
	}
	block := uint64(minute >> 2)
	return 1 + s.variation*(2*hash01(s.trace.cfg.Seed, s.nodeID+0x5bd1e995, block)-1)
}

func (s *nodeSource) Power(t simtime.Time) float64 {
	if t < 0 {
		return 0
	}
	minute := int64(t / simtime.Time(simtime.Minute))
	return s.peakW * s.trace.At(minute) * s.localFactor(minute)
}

// Energy answers interval queries from the rolling day cache, summing
// the cached per-minute powers in the same order as the original minute
// loop, so every span is bit-identical to it.
func (s *nodeSource) Energy(from, to simtime.Time) float64 {
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
	minute := int64(from / minuteT)
	cursor := from
	for cursor < to {
		day := minute / minutesPerDay
		s.ensureDay(day)
		m := int(minute % minutesPerDay)

		// This iteration covers the part of [cursor, to) that lies in
		// the cached day.
		segEnd := to
		if dayEnd := simtime.Time(day+1) * minutesPerDay * minuteT; dayEnd < segEnd {
			segEnd = dayEnd
		}

		if next := simtime.Time(minute+1) * minuteT; next >= segEnd {
			// The segment is contained in a single minute (possibly the
			// exact full minute).
			total += s.minuteP[m] * segEnd.Sub(cursor).Seconds()
			cursor = segEnd
			minute = int64(segEnd / minuteT)
			continue
		} else if cursor != simtime.Time(minute)*minuteT {
			// Head partial minute.
			total += s.minuteP[m] * next.Sub(cursor).Seconds()
			cursor = next
			minute++
			m++
		}

		// Whole minutes, then an optional tail partial minute.
		if nFull := int(int64(segEnd/minuteT) - minute); nFull > 0 {
			for i := 0; i < nFull; i++ {
				total += s.minuteP[m+i] * 60.0
			}
			minute += int64(nFull)
			m += nFull
			cursor = simtime.Time(minute) * minuteT
		}
		if cursor < segEnd {
			total += s.minuteP[m] * segEnd.Sub(cursor).Seconds()
			cursor = segEnd
			minute++
		}
	}
	return total
}

// PeakPowerFor returns the panel peak power that generates exactly
// multiple transmission energies per forecast window at full sun
// (the paper uses multiple = 2).
func PeakPowerFor(txEnergyJ float64, window simtime.Duration, multiple float64) float64 {
	return multiple * txEnergyJ / window.Seconds()
}

// hash01 maps (seed, a, b) to a uniform float64 in [0,1) via splitmix64.
func hash01(seed, a, b uint64) float64 {
	x := seed ^ a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
