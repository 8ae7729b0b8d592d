// Command perfbench is the repository benchmark: it runs one workload
// for a fixed wall-clock window, checks the program's outputs, and
// prints one JSON result line.
//
//	perfbench --workload city-day --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//   - city-day: a 1000-node single-gateway city simulated for one day.
//     The packet pipeline dominates: medium contention, the BLA
//     decision per packet, and gateway ingest. An operation is one
//     simulation run.
//   - lifespan-year: a 100-node single-gateway network simulated for a
//     whole year. Few packets per simulated minute, so the battery,
//     rainflow and forecaster integration (and its span fast paths)
//     weigh more, together with the daily w_u recompute. An operation is
//     one simulated month.
//   - lns-fleet: the obs export of a two-day city-day run replayed
//     through the LNS daemon over HTTP as cmd/loadgen replays it into
//     cmd/lnsd with their default flags. An operation is one uplink
//     request. No simulator code is timed.
//
// Each simulation repetition draws a fresh scenario seed from the run
// seed, so no in-process cache, such as the forecaster's primed
// profiles, serves one repetition from another's work; lns-fleet builds
// its stream once per run and replays it into a new daemon each
// repetition.
//
// With --trace 0 the end-to-end metrics are printed: the median and a
// tail percentile of operation time, uplinks processed per second of
// operation time (simulated transmissions, or uplinks ingested), heap
// bytes allocated per operation, and setup_s, the median set-up time of
// a repetition (building the simulation, or starting the daemon and
// registering the fleet). The tail percentile is fixed per workload so
// that a 25-second run leaves at least ten operations beyond it: p75 for
// the simulations (50 to 85 operations a run), p99 for lns-fleet (some
// 30000). The operation count goes to standard error. With --trace 1
// the same loop runs with observability counters and the CPU profiler
// on, and the per-layer metrics are printed instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meter accumulates one run's measurements across repetitions.
type meter struct {
	traced bool

	setups    []float64 // seconds, one per repetition
	ops       []float64 // milliseconds, one per operation
	busy      time.Duration
	uplinks   int64
	allocB    uint64
	attempted int
	failed    int
	// counts are per-layer tallies summed over repetitions (trace runs).
	counts map[string]float64
}

// count adds v to a per-layer tally.
func (m *meter) count(name string, v float64) { m.counts[name] += v }

// workload runs repetitions and, once the measured window closed,
// re-checks one repetition against the program's reference path.
type workload interface {
	// rep runs repetition i (i < 0 is the unrecorded warm-up) with inputs
	// derived from seed. A returned error is a wrong output.
	rep(m *meter, seed uint64, i int) error
	// verify compares a recorded repetition against the reference path.
	verify(seed uint64) error
}

// spec is a workload and the operation-time quantile op_tail_ms
// reports for it.
type spec struct {
	w    workload
	tail float64
}

func newWorkload(name string) (spec, error) {
	switch name {
	case "city-day":
		return spec{&simWorkload{scenario: cityDay}, 0.75}, nil
	case "lifespan-year":
		return spec{&simWorkload{scenario: lifespanYear}, 0.75}, nil
	case "lns-fleet":
		return spec{&lnsWorkload{}, 0.99}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (city-day, lifespan-year, lns-fleet)", name)
}

func main() {
	name := flag.String("workload", "", "workload: city-day, lifespan-year or lns-fleet")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured wall-clock window")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	sp, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one warm-up repetition, then repetitions until the
// window closes, then the reference check.
func run(sp spec, seed uint64, window time.Duration, traced bool) (*result, error) {
	w := sp.w
	m := &meter{traced: traced, counts: map[string]float64{}}
	if err := w.rep(&meter{traced: traced, counts: map[string]float64{}}, seed, -1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var prof *cpuProfile
	if traced {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(window)
	correct := true
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		// Collect the previous repetition's garbage off this one's clock.
		runtime.GC()
		if err := w.rep(m, seed, i); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: repetition %d: %v\n", i, err)
			correct = false
		}
	}
	var layers map[string]float64
	if prof != nil {
		var err error
		if layers, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	if err := w.verify(seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference check:", err)
		correct = false
	}
	if m.attempted == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	res := &result{
		Correct:   correct && m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d operations timed; op_tail_ms is their p%g\n", len(m.ops), sp.tail*100)
	if traced {
		perLayer(res.Metrics, m, layers)
	} else {
		endToEnd(res.Metrics, m, sp.tail)
	}
	return res, nil
}

// endToEnd fills the user-visible metrics.
func endToEnd(out map[string]metric, m *meter, tail float64) {
	ops := float64(len(m.ops))
	out["op_p50_ms"] = metric{quantile(m.ops, 0.5), "ms"}
	out["op_tail_ms"] = metric{quantile(m.ops, tail), "ms"}
	out["uplinks_per_s"] = metric{float64(m.uplinks) / m.busy.Seconds(), "1/s"}
	out["alloc_mb_per_op"] = metric{float64(m.allocB) / 1e6 / ops, "MB"}
	out["setup_s"] = metric{quantile(m.setups, 0.5), "s"}
}

// perLayer fills the per-layer metrics: CPU time of set-up and
// operations attributed to each layer, per operation; the layers' own
// counters and ratios; and the traced operation median, whose excess
// over op_p50_ms is the tracing overhead.
func perLayer(out map[string]metric, m *meter, layers map[string]float64) {
	ops := float64(len(m.ops))
	for _, l := range layerNames {
		out["cpu."+l+"_ms"] = metric{layers[l] / 1e6 / ops, "ms/op"}
	}
	for _, c := range perOpCounts {
		out[c] = metric{m.counts[c] / ops, "count/op"}
	}
	ratio := func(num, den string) float64 {
		if m.counts[den] == 0 {
			return 0
		}
		return m.counts[num] / m.counts[den]
	}
	out["medium.decoded_share"] = metric{ratio("medium.decoded", "medium.uplinks"), "ratio"}
	out["mac.refused_share"] = metric{ratio("mac.refused", "mac.packets"), "ratio"}
	out["mac.attempts_per_sent"] = metric{ratio("mac.attempts", "mac.sent"), "count"}
	out["lns.apply_ms_per_batch"] = metric{ratio("lns.apply_ns", "lns.batches") / 1e6, "ms"}
	out["lns.recompute_ms"] = metric{ratio("lns.recompute_ns", "lns.recomputes") / 1e6, "ms"}
	out["lns.barrier_ms"] = metric{ratio("lns.barrier_ns", "lns.barriers") / 1e6, "ms"}
	out["traced.op_p50_ms"] = metric{quantile(m.ops, 0.5), "ms"}
}

// perOpCounts are the layer tallies reported per operation.
var perOpCounts = []string{
	"engine.events",
	"medium.uplinks",
	"netserver.packets",
	"netserver.recomputes",
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method), without reordering xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// allocated returns the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// subSeed derives repetition i's input seed from the run seed
// (splitmix64 finalizer), so repetitions never share inputs.
func subSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+2)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
