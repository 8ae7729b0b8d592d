package sim

import "repro/internal/simtime"

// dayPowers is the fast kernel's per-node cache of DayPowers: the
// integrator wakes once per event, so without the cache the dynamic
// dispatch plus the source's own day check run hundreds of times per
// simulated day to return the same slice. Sound only for fast-kernel
// nodes: their diurnal-EWMA forecaster never queries the source, so the
// kernel's own DayPowers calls are the only thing that refills the
// source's rolling day cache (a Perfect/Noisy forecaster peeking at
// future days would invalidate the cached contents behind our back —
// those nodes run the generic path, which calls the source every time).
func (n *Node) dayPowers(day int64) []float64 {
	if n.powCache == nil || n.powDay != day {
		n.powCache = n.srcMin.DayPowers(day)
		n.powDay = day
	}
	return n.powCache
}

// debugGenericIntegrate forces every node through the generic
// integration path; the kernel oracle test uses it to pin the fused kernel
// bit-for-bit against the reference implementation.
var debugGenericIntegrate bool

// Integrate advances the node's energy state from its last integration
// point to now: per-minute harvesting (taught to the forecaster),
// baseline sleep draw, and battery charge/discharge with the protocol's
// theta cap applied by the battery itself.
func (n *Node) Integrate(to simtime.Time) {
	from := n.lastIntegrated
	if to <= from {
		return
	}
	n.lastIntegrated = to
	if n.batt != nil && n.srcMin != nil && n.fcEWMA != nil && !debugGenericIntegrate {
		n.integrateFast(from, to)
		return
	}
	n.integrateGeneric(from, to)
}

// integrateFast is the fused integration kernel for the dominant node
// shape (per-minute solar source, diurnal-EWMA forecaster, plain
// battery). It performs exactly the generic path's arithmetic in the
// same order, in two passes per chunk, because the forecaster and the
// battery share no state: the whole minutes up to the end of the day or
// of the window fold into the profile with one FoldFullSlots and go to
// the battery with one Minutes call, and a partial minute is one
// Observe and one Step. The battery owns the charge spans and the
// falling-run collapse that let most of those minutes skip the
// degradation query, and falling runs their SoC pushes.
func (n *Node) integrateFast(from, to simtime.Time) {
	b := n.batt
	const minuteT = simtime.Time(simtime.Minute)
	extra := n.extraDrawJ
	n.extraDrawJ = 0
	for cursor := from; cursor < to; extra = 0 {
		minute := int64(cursor / minuteT)
		day := minute / minutesPerDay
		slot := int(minute - day*minutesPerDay)
		pow := n.dayPowers(day)
		next := simtime.Time(minute+1) * minuteT
		if cursor == simtime.Time(minute)*minuteT && next <= to {
			end := min(int64(to/minuteT), (day+1)*minutesPerDay)
			run := pow[slot : slot+int(end-minute)]
			n.fcEWMA.FoldFullSlots(slot, run)
			b.Minutes(next, run, 60.0*n.sleepW, extra)
			cursor = simtime.Time(end) * minuteT
			continue
		}
		next = min(next, to)
		secs := next.Sub(cursor).Seconds()
		harvest := pow[slot] * secs
		n.fc.Observe(cursor, next, harvest)
		b.Step(next, harvest-secs*n.sleepW-extra)
		cursor = next
	}
}

// integrateGeneric is the reference integration path: any source and
// forecaster shape, any store (including Hybrid), one battery call per
// minute. Nodes outside the fast kernel's preconditions always run
// here; the oracle test forces it for every node to pin the kernel.
func (n *Node) integrateGeneric(from, to simtime.Time) {
	const minuteT = simtime.Time(simtime.Minute)
	extra := n.extraDrawJ
	n.extraDrawJ = 0
	cursor := from
	minute := int64(cursor / minuteT)
	if n.srcMin != nil {
		// Walk the source's cached per-minute powers for the day directly.
		// A whole-minute step harvests power·60 s; a partial step inside
		// one minute harvests power·elapsed — bit-identical to the
		// interval query, which reduces to the same single product.
		day := minute / minutesPerDay
		dayStart := day * minutesPerDay
		pow := n.srcMin.DayPowers(day)
		for cursor < to {
			if minute-dayStart >= minutesPerDay {
				day = minute / minutesPerDay
				dayStart = day * minutesPerDay
				pow = n.srcMin.DayPowers(day)
			}
			p := pow[minute-dayStart]
			next := simtime.Time(minute+1) * minuteT
			var net float64
			if next <= to && cursor == simtime.Time(minute)*minuteT {
				harvest := p * 60.0
				if n.fcEWMA != nil {
					n.fcEWMA.ObserveFullSlot(int(minute-dayStart), harvest)
				} else {
					n.fc.Observe(cursor, next, harvest)
				}
				net = harvest - 60.0*n.sleepW - extra
			} else {
				if next > to {
					next = to
				}
				secs := next.Sub(cursor).Seconds()
				harvest := p * secs
				n.fc.Observe(cursor, next, harvest)
				net = harvest - secs*n.sleepW - extra
			}
			extra = 0
			if net >= 0 {
				n.Batt.Charge(next, net)
			} else {
				n.Batt.Discharge(next, -net)
			}
			cursor = next
			minute++
		}
		return
	}
	for cursor < to {
		next := simtime.Time(minute+1) * minuteT
		if next > to {
			next = to
		}
		harvest := n.src.Energy(cursor, next)
		secs := next.Sub(cursor).Seconds()
		n.fc.Observe(cursor, next, harvest)
		net := harvest - secs*n.sleepW - extra
		extra = 0
		if net >= 0 {
			n.Batt.Charge(next, net)
		} else {
			n.Batt.Discharge(next, -net)
		}
		cursor = next
		minute++
	}
}
