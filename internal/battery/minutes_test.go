package battery

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/simtime"
)

const (
	minuteT    = simtime.Time(simtime.Minute)
	dayMinutes = 24 * 60
	// minutesStart is where every twin schedule starts: ten days in, so
	// calendar aging has moved the fade off zero.
	minutesStart = 10 * simtime.Time(simtime.Day)
)

// seqStep is the reference Step and Minutes replace: one Charge or
// Discharge per step, the node integrator's generic path.
func seqStep(b *Battery, now simtime.Time, net float64) {
	if net >= 0 {
		b.Charge(now, net)
	} else {
		b.Discharge(now, -net)
	}
}

// minutesCall is one integration call of a twin schedule: an optional
// partial step of partial into the minute under the cursor (the rest of
// that minute follows as a second partial step), then minutes whole
// minutes in one Minutes call. extraJ is charged to the call's first
// step.
type minutesCall struct {
	partial simtime.Duration
	minutes int
	extraJ  float64
}

// minutesPlan is one battery's schedule: a per-minute power trace from
// minutesStart, cut into calls.
type minutesPlan struct {
	model            Model
	capJ, soc, theta float64
	baseJ            float64 // per-minute sleep draw
	pow              []float64
	calls            []minutesCall
}

// twinRuns counts, over a schedule, the span and collapsed runs the
// Minutes path took: calls after which the at-capacity span was armed,
// and all-discharging calls that needed fewer SoC-history revisions than
// the per-minute path (a collapsed falling run; nothing else changes the
// revision count).
type twinRuns struct {
	skipArmed, falling int
}

// runTwins drives two batteries through the plan — ref one Charge or
// Discharge per step, run with Step and Minutes — and requires every
// observable to match bit for bit after every call and at the end.
func runTwins(t *testing.T, p minutesPlan) twinRuns {
	t.Helper()
	build := func() *Battery {
		b, err := New(p.model, p.capJ, p.soc, 25)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		b.SetChargeLimit(p.theta)
		return b
	}
	ref, run := build(), build()
	sleepW := p.baseJ / 60
	cursor := minutesStart
	var runs twinRuns
	for ci, c := range p.calls {
		extra := c.extraJ
		partial := func(d simtime.Duration) {
			m := int((cursor - minutesStart) / minuteT)
			to := min(cursor.Add(d), minutesStart+simtime.Time(m+1)*minuteT)
			secs := to.Sub(cursor).Seconds()
			harvest := p.pow[m] * secs
			net := harvest - secs*sleepW - extra
			extra = 0
			seqStep(ref, to, net)
			run.Step(to, net)
			cursor = to
		}
		m := int((cursor - minutesStart) / minuteT)
		if c.partial > 0 && m < len(p.pow) {
			partial(c.partial)
			partial(simtime.Minute)
			m++
		}
		pows := p.pow[m:min(m+c.minutes, len(p.pow))]
		first := cursor + minuteT
		refRev, runRev := ref.tracker.counter.rev, run.tracker.counter.rev
		neg := true
		for k, pw := range pows {
			net := pw*60.0 - p.baseJ
			if k == 0 {
				net -= extra
			}
			neg = neg && net < 0
			seqStep(ref, first+simtime.Time(k)*minuteT, net)
		}
		run.Minutes(first, pows, p.baseJ, extra)
		cursor += simtime.Time(len(pows)) * minuteT
		if neg && len(pows) > 0 && ref.tracker.counter.rev-refRev > run.tracker.counter.rev-runRev {
			runs.falling++
		}
		if run.skipUntil != 0 {
			runs.skipArmed++
		}
		requireTwins(t, ci, ref, run)
	}
	end := simtime.Duration(cursor)
	requireSameBreakdown(t, "final Damage", ref.Damage(simtime.Time(end)), run.Damage(simtime.Time(end)))
	return runs
}

// requireTwins compares every observable a step can change: stored
// energy, the rainflow counter (residue stack, extremum, direction,
// sample count) and the cycles it retired, the last direction and the
// unreported transitions.
func requireTwins(t *testing.T, call int, ref, run *Battery) {
	t.Helper()
	if !bitsEqual(ref.stored, run.stored) {
		t.Fatalf("call %d: stored %v, per-minute reference %v", call, run.stored, ref.stored)
	}
	if rs, ws := run.tracker.counter.Snapshot(), ref.tracker.counter.Snapshot(); !reflect.DeepEqual(rs, ws) || !bitsEqual(rs.Last, ws.Last) {
		t.Fatalf("call %d: counter %+v, per-minute reference %+v", call, rs, ws)
	}
	if ref.tracker.closed != run.tracker.closed {
		t.Fatalf("call %d: retired cycles %+v, per-minute reference %+v", call, run.tracker.closed, ref.tracker.closed)
	}
	if ref.lastDir != run.lastDir || !slices.Equal(ref.transitions, run.transitions) {
		t.Fatalf("call %d: direction %d transitions %v, per-minute reference %d %v",
			call, run.lastDir, run.transitions, ref.lastDir, ref.transitions)
	}
}

// randomPlan draws a few days of clear and cloudy solar minutes and dark
// nights for a random battery, cut into calls the way the node
// integrator cuts them: partial minutes at event instants, short and
// long whole-minute runs, and runs to the end of the day, each with an
// occasional radio draw.
func randomPlan(rng *rand.Rand, theta float64) minutesPlan {
	capJ := 50 + 450*rng.Float64()
	p := minutesPlan{model: DefaultModel(), capJ: capJ, soc: rng.Float64(), theta: theta}
	aging := []float64{1, 40, 1000}[rng.IntN(3)]
	p.model.K1 *= aging
	p.model.K6 *= aging
	if rng.IntN(8) != 0 {
		p.baseJ = capJ * (1e-4 + 7e-4*rng.Float64())
	}
	peakW := capJ * (5e-4 + 4.5e-3*rng.Float64()) / 60
	p.pow = make([]float64, (2+rng.IntN(3))*dayMinutes)
	cloud := 1.0
	for m := range p.pow {
		if m%30 == 0 && rng.IntN(3) == 0 {
			cloud = 0.05 + 0.95*rng.Float64()
		}
		if dm := m % dayMinutes; dm >= 360 && dm < 1080 {
			p.pow[m] = peakW * math.Sin(math.Pi*float64(dm-360)/720) * cloud
		}
	}
	for m := 0; m < len(p.pow); {
		var c minutesCall
		if rng.IntN(3) == 0 {
			c.partial = simtime.Duration(1+rng.Int64N(59999)) * simtime.Millisecond
			m++
		}
		switch rng.IntN(3) {
		case 0:
			c.minutes = 1 + rng.IntN(30)
		case 1:
			c.minutes = 1 + rng.IntN(600)
		default:
			c.minutes = dayMinutes - m%dayMinutes
		}
		switch rng.IntN(4) {
		case 0:
			c.extraJ = 3 * p.baseJ * rng.Float64()
		case 1:
			c.extraJ = 0.01 * capJ * rng.Float64()
		}
		p.calls = append(p.calls, c)
		m += c.minutes
	}
	return p
}

// TestMinutesMatchesSequential is the battery-level oracle for the
// charge spans and the falling-run collapse: on random solar traces with
// nights, cloudy dips, partial minutes and radio draws, at theta 0.5,
// 0.9 and 1, from random initial SoC and at three aging rates, Step and
// Minutes must leave the battery bit-identical to one Charge or
// Discharge per step. The test fails if the at-capacity span or the
// collapsed discharging run never arms.
func TestMinutesMatchesSequential(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	var total twinRuns
	for _, theta := range []float64{0.5, 0.9, 1} {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewPCG(uint64(trial), math.Float64bits(theta)))
			r := runTwins(t, randomPlan(rng, theta))
			total.skipArmed += r.skipArmed
			total.falling += r.falling
		}
	}
	t.Logf("calls after which the at-capacity span was armed %d, collapsed discharging calls %d",
		total.skipArmed, total.falling)
	if total.skipArmed == 0 || total.falling == 0 {
		t.Fatalf("vacuous oracle: at-capacity span armed after %d calls, collapsed discharging runs in %d calls",
			total.skipArmed, total.falling)
	}
}

// TestMinutesChargingRunOutlivesItsSpan: a trickle charge with no night
// is one rising run that lasts days, longer than the full-accept span
// any of its minutes proves (to the end of the next day). At fast aging
// the capacity fade after the span's end pushes the real cap below the
// proven limit, so a charge that kept using the limit past the span
// would accept charge the per-minute path clamps.
func TestMinutesChargingRunOutlivesItsSpan(t *testing.T) {
	for _, aging := range []float64{10, 1000} {
		for _, theta := range []float64{0.5, 1} {
			p := minutesPlan{model: DefaultModel(), capJ: 100, soc: 0.05, theta: theta}
			p.model.K1 *= aging
			p.model.K6 *= aging
			p.pow = make([]float64, 6*dayMinutes)
			for m := range p.pow {
				p.pow[m] = 0.95 * theta * p.capJ / float64(len(p.pow)) / 60
			}
			p.calls = []minutesCall{{minutes: len(p.pow)}}
			runTwins(t, p)
		}
	}
}

// FuzzMinutesMatchesSequential is the same equivalence on fuzzed
// schedules. The first four bytes pick theta, the initial SoC, the sleep
// draw and the aging rate; then each byte pair is a segment: a power
// level, and a control byte whose low six bits are the segment's length
// in minutes and whose top two bits either continue the current call
// (0), cut a new call (1), cut one that opens with a partial minute (2),
// or cut one that opens with a radio draw (3). Run it beyond the seed
// corpus with
//
//	go test -run '^$' -fuzz FuzzMinutesMatchesSequential -fuzztime 10s ./internal/battery
func FuzzMinutesMatchesSequential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		const capJ, maxMinutes = 100, 6000
		p := minutesPlan{
			model: DefaultModel(),
			capJ:  capJ,
			theta: []float64{0.5, 0.9, 1}[data[0]%3],
			soc:   float64(data[1]) / 255,
			baseJ: float64(data[2]) / 255 * 1e-3 * capJ,
		}
		aging := []float64{1, 40, 1000}[data[3]%3]
		p.model.K1 *= aging
		p.model.K6 *= aging
		peakW := 5e-3 * capJ / 60
		for i := 4; i+1 < len(data) && len(p.pow) < maxMinutes; i += 2 {
			level, ctrl := float64(data[i])/255, data[i+1]
			n := 1 + int(ctrl&63)
			for range n {
				p.pow = append(p.pow, level*peakW)
			}
			switch ctrl >> 6 {
			case 0:
				if len(p.calls) > 0 {
					p.calls[len(p.calls)-1].minutes += n
					continue
				}
				p.calls = append(p.calls, minutesCall{minutes: n})
			case 1:
				p.calls = append(p.calls, minutesCall{minutes: n})
			case 2:
				ms := 1 + int64(data[i])*235
				p.calls = append(p.calls, minutesCall{partial: simtime.Duration(ms) * simtime.Millisecond, minutes: n - 1})
			case 3:
				p.calls = append(p.calls, minutesCall{minutes: n, extraJ: level * 0.01 * capJ})
			}
		}
		runTwins(t, p)
	})
}
