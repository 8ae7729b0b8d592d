package repro_test

// One benchmark per paper artifact: each regenerates a scaled-down
// version of the corresponding figure/table workload and reports the
// headline domain metric alongside the usual time/op. Run everything
// with:
//
//	go test -bench=. -benchmem
//
// Paper-scale regeneration lives in cmd/experiments (-scale paper).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/battery"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/lns"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/utility"
)

// benchOpts is the scaled workload shared by the figure benchmarks.
func benchOpts() experiment.Options {
	return experiment.Options{Seed: 3, Nodes: 15, Duration: 2 * simtime.Day, AgingFactor: 1500}
}

func parseCell(b *testing.B, s string) float64 {
	b.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		b.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func BenchmarkFig2Degradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Fig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty fig2")
		}
	}
}

func BenchmarkFig3Influence(b *testing.B) {
	o := benchOpts()
	o.Duration = 9 * simtime.Day
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig3(o); err != nil {
			b.Fatal(err)
		}
	}
}

// runSweepOnce is shared by the Fig. 4/5/6 benchmarks.
func runSweepOnce(b *testing.B) []*experiment.Table {
	b.Helper()
	tables, err := experiment.ThetaSweep(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return tables
}

func BenchmarkFig4WindowSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runSweepOnce(b)
		if tables[0].ID != "fig4" || len(tables[0].Rows) == 0 {
			b.Fatal("missing fig4 rows")
		}
	}
}

func BenchmarkFig5Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runSweepOnce(b)
		if tables[1].ID != "fig5" || len(tables[1].Rows) == 0 {
			b.Fatal("missing fig5 rows")
		}
	}
}

func BenchmarkFig6Network(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runSweepOnce(b)
		if tables[2].ID != "fig6" || len(tables[2].Rows) == 0 {
			b.Fatal("missing fig6 rows")
		}
	}
}

// benchSweep runs the four-variant sweep at a fixed worker count and
// reports the mean H-50 PRR as the headline domain metric. The pair of
// benchmarks below is the bench-regression harness's speedup probe:
// Workers=GOMAXPROCS vs Workers=1 on the identical workload.
func benchSweep(b *testing.B, workers int) {
	var prr float64
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Workers = workers
		tables, err := experiment.ThetaSweep(o)
		if err != nil {
			b.Fatal(err)
		}
		fig6 := tables[2]
		prr = parseCell(b, fig6.Rows[2][3]) // avg PRR, H-50 column
	}
	b.ReportMetric(prr, "h50-prr")
}

func BenchmarkSweepWorkers1(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepWorkersMax(b *testing.B) { benchSweep(b, 0) }

// lifespanOpts ages gently enough that run-to-EoL spans several months
// of simulated time (Fig. 7 needs monthly samples).
func lifespanOpts() experiment.Options {
	return experiment.Options{Seed: 3, Nodes: 15, AgingFactor: 40}
}

func BenchmarkFig7MaxDegradation(b *testing.B) {
	var lifespanDays float64
	for i := 0; i < b.N; i++ {
		tables, err := experiment.Lifespan(lifespanOpts())
		if err != nil {
			b.Fatal(err)
		}
		if tables[0].ID != "fig7" || len(tables[0].Rows) == 0 {
			b.Fatal("missing fig7 rows")
		}
		lifespanDays = parseCell(b, tables[1].Rows[0][1])
	}
	b.ReportMetric(lifespanDays, "lorawan-lifespan-days")
}

func BenchmarkFig8Lifespan(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		tables, err := experiment.Lifespan(lifespanOpts())
		if err != nil {
			b.Fatal(err)
		}
		fig8 := tables[1]
		base := parseCell(b, fig8.Rows[0][1])
		h50 := parseCell(b, fig8.Rows[1][1])
		improvement = 100 * (h50/base - 1)
	}
	b.ReportMetric(improvement, "h50-improvement-%")
}

func BenchmarkFig9(b *testing.B) {
	o := experiment.Options{Seed: 3, Duration: 3 * simtime.Hour}
	cfg := experiment.TestbedScenario(o, config.ProtocolBLA, 1)
	var prr metrics.Welford
	for i := 0; i < b.N; i++ {
		s, err := sim.New(cfg, sim.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range res.Nodes {
			prr.Add(n.Stats.PRR())
		}
	}
	b.ReportMetric(prr.Mean(), "prr")
}

func BenchmarkTableIOverhead(b *testing.B) {
	// The Table I artifact itself is the decision-path cost: benchmark
	// the full BLA decision (forecast + estimates + Algorithm 1).
	bla, err := mac.NewBLA(mac.BLAConfig{
		Theta:           0.5,
		WeightB:         1,
		Beta:            0.3,
		Forecaster:      energy.NewDiurnalEWMA(0.3),
		Window:          simtime.Minute,
		MaxWindows:      60,
		SingleTxEnergyJ: 0.035,
		MaxAttempts:     8,
	})
	if err != nil {
		b.Fatal(err)
	}
	bla.OnDegradationUpdate(0, 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := bla.DecideTx(simtime.Time(i)*simtime.Time(simtime.Minute), 40, 1); d.Drop {
			b.Fatal("unexpected drop")
		}
	}
}

// --- microbenchmarks of the hot paths ---

func BenchmarkAlgorithm1Select(b *testing.B) {
	sel, err := core.NewSelector(utility.Linear{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	in := core.Inputs{
		StoredEnergy:          1,
		NormalizedDegradation: 0.7,
		ForecastGen:           make([]float64, 60),
		EstTxEnergy:           make([]float64, 60),
		MaxTxEnergy:           0.28,
	}
	for i := range in.ForecastGen {
		in.ForecastGen[i] = float64(i%7) * 0.01
		in.EstTxEnergy[i] = 0.035
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Select(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRainflowIncremental(b *testing.B) {
	var c battery.Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Push(float64(i%17) / 16)
	}
}

func BenchmarkSolarEnergyQuery(b *testing.B) {
	trace, err := energy.NewYearTrace(energy.DefaultSolarConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	src := trace.NodeSource(3, 1.5, 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := simtime.Time(i%500000) * simtime.Time(simtime.Minute)
		_ = src.Energy(from, from.Add(40*simtime.Minute))
	}
}

// warmSim runs one untimed simulation so the timed iterations measure
// steady state: the first run in a process pays one-off costs (priming
// the forecaster profile cache, populating event pools) that later
// iterations reuse. Without this, a -benchtime 1x CI smoke run reports
// inflated B/op relative to the amortized committed baseline.
func warmSim(b *testing.B, cfg config.Scenario) {
	b.Helper()
	s, err := sim.New(cfg, sim.Hooks{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSimulatorDay(b *testing.B) {
	cfg := config.Default().WithSeed(9)
	cfg.Nodes = 50
	cfg.Duration = simtime.Day
	warmSim(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(cfg, sim.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// setupSeed numbers BenchmarkSimulatorSetup's scenarios across every
// round of the benchmark, so no seed, and no solar trace, repeats.
var setupSeed atomic.Uint64

// BenchmarkSimulatorSetup times sim.New alone for the 1000-node
// city-day scenario (perfbench's setup_s): placement, battery and MAC
// construction, the synthesis of the trace days priming reads, and the
// seven-day forecaster priming, on up to GOMAXPROCS workers. Every
// iteration takes a fresh seed, so the shared trace cache never serves
// one. Compare worker counts with -cpu 1,2.
func BenchmarkSimulatorSetup(b *testing.B) {
	cfg := config.Default()
	cfg.Nodes = 1000
	cfg.Duration = simtime.Day
	for i := 0; i < b.N; i++ {
		if _, err := sim.New(cfg.WithSeed(1e6+setupSeed.Add(1)), sim.Hooks{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimLargeN runs one simulated day at the given network size and
// reports throughput in simulated days per wall-clock second — the
// large-N scaling headline tracked by the bench-regression harness.
func benchSimLargeN(b *testing.B, nodes int) {
	b.Helper()
	cfg := config.Default().WithSeed(9)
	cfg.Nodes = nodes
	cfg.Duration = simtime.Day
	if testing.Short() {
		cfg.Duration = 2 * simtime.Hour
	}
	warmSim(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(cfg, sim.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	simDays := cfg.Duration.Seconds() / (24 * 3600) * float64(b.N)
	b.ReportMetric(simDays/b.Elapsed().Seconds(), "sim-days/s")
}

// BenchmarkSimulatorDayLargeN and BenchmarkSweep1000Nodes scale the
// single-run workload to the paper's densest deployments; both shrink
// to two simulated hours under -short so smoke runs stay fast.
func BenchmarkSimulatorDayLargeN(b *testing.B) { benchSimLargeN(b, 500) }
func BenchmarkSweep1000Nodes(b *testing.B)     { benchSimLargeN(b, 1000) }

// benchSimMultiGateway runs one simulated day at city scale: a
// multi-gateway deployment wide enough that every gateway carries real
// traffic. ForecastPrimeDays is trimmed to one because priming is
// construction cost, not the simulation loop this bench tracks (at 100k
// nodes the default seven priming days dominate wall-clock). sim-days/s
// is the scale-ladder headline the bench-regression harness gates.
func benchSimMultiGateway(b *testing.B, nodes, gateways int, radiusM float64) {
	b.Helper()
	cfg := config.Default().WithSeed(9)
	cfg.Nodes = nodes
	cfg.Gateways = gateways
	cfg.MaxDistanceM = radiusM
	cfg.Channels = 8
	cfg.Demodulators = 8
	cfg.ForecastPrimeDays = 1
	cfg.Duration = simtime.Day
	if testing.Short() {
		cfg.Duration = 2 * simtime.Hour
	}
	run := func() {
		s, err := sim.New(cfg, sim.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	// No warm-up pass: one iteration is tens of seconds even under
	// -short, so cold-start noise is negligible and a warmSim-style
	// extra run would double the bench's wall-clock cost.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	simDays := cfg.Duration.Seconds() / (24 * 3600) * float64(b.N)
	b.ReportMetric(simDays/b.Elapsed().Seconds(), "sim-days/s")
}

// BenchmarkSweep10kNodes and BenchmarkSweep100kNodes are the scale
// ladder's upper rungs: the 100k run is the largest deployment the
// ladder tracks (the paper's own runs stop at 500 nodes), and the 10k
// rung localizes regressions between 1k and 100k. Both shrink to two
// simulated hours under -short.
func BenchmarkSweep10kNodes(b *testing.B)  { benchSimMultiGateway(b, 10_000, 8, 25_000) }
func BenchmarkSweep100kNodes(b *testing.B) { benchSimMultiGateway(b, 100_000, 16, 40_000) }

// lnsIngestTrace builds the deterministic replay workload for
// BenchmarkLNSIngest: a diurnal SoC sawtooth per node sampled every ten
// minutes — pure arithmetic, no RNG, so every iteration replays
// identical bytes through the daemon.
func lnsIngestTrace(nodes, days int) *lns.Trace {
	tr := &lns.Trace{SampleEvery: 10 * simtime.Minute}
	for id := 0; id < nodes; id++ {
		soc := 0.55 + 0.3*float64(id%7)/7
		nt := lns.NodeTrace{ID: id, InitialSoC: soc}
		for k := 0; k < days*144; k++ {
			at := simtime.Time(k+1) * simtime.Time(10*simtime.Minute)
			if hour := (k / 6) % 24; hour >= 8 && hour < 18 {
				soc -= 0.004 // daytime drain
			} else {
				soc += 0.003 // overnight recharge
			}
			soc = min(0.95, max(0.15, soc))
			nt.Transitions = append(nt.Transitions, battery.Transition{At: at, SoC: soc})
		}
		tr.Nodes = append(tr.Nodes, nt)
	}
	return tr
}

// BenchmarkLNSIngest measures the daemon's HTTP ingest path end to end:
// register a fleet, POST every replay batch through an in-process
// httptest server, and issue the final recompute. ingest-msgs/s is the
// uplink throughput headline (gated by the bench-regression harness
// like every "/s" metric); recompute-ms is the mean wall-clock latency
// of one w_u recompute over the whole fleet, taken from the daemon's
// own lns.* counters. -short shrinks the fleet and horizon for the CI
// smoke gate.
func BenchmarkLNSIngest(b *testing.B) {
	nodes, days := 64, 7
	if testing.Short() {
		nodes, days = 16, 2
	}
	tr := lnsIngestTrace(nodes, days)
	batches := lns.BuildBatches(tr, 0, 8, 64)
	finalAt := lns.LastUplinkAt(batches).Add(simtime.Day)
	var uplinks int
	for _, bb := range batches {
		uplinks += len(bb.Uplinks)
	}

	// Pre-encode every request body so the timed loop measures the
	// daemon, not client-side JSON marshalling.
	reg := lns.RegisterReq{}
	for _, nt := range tr.Nodes {
		reg.Nodes = append(reg.Nodes, lns.RegisterNode{Node: nt.ID, SoC: nt.InitialSoC})
	}
	mustJSON := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	regBody := mustJSON(reg)
	bodies := make([][]byte, len(batches))
	for i, bb := range batches {
		bodies[i] = mustJSON(bb)
	}
	finalBody := mustJSON(lns.RecomputeReq{AtMs: int64(finalAt)})
	post := func(client *http.Client, url string, body []byte) int {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	var recomputeNs, recomputes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := lns.NewDaemon(lns.Config{Interval: simtime.Day, QueueDepth: len(batches) + 1})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(d.Handler())
		client := ts.Client()
		if code := post(client, ts.URL+"/v1/register", regBody); code != http.StatusOK {
			b.Fatalf("register: status %d", code)
		}
		for _, body := range bodies {
			for {
				code := post(client, ts.URL+"/v1/uplinks", body)
				if code == http.StatusAccepted {
					break
				}
				if code != http.StatusTooManyRequests {
					b.Fatalf("uplinks: status %d", code)
				}
			}
		}
		if code := post(client, ts.URL+"/v1/recompute", finalBody); code != http.StatusOK {
			b.Fatalf("recompute: status %d", code)
		}
		rec := d.Recorder()
		recomputeNs += rec.Counter("lns.recompute_ns_total").Value()
		recomputes += rec.Counter("lns.recomputes").Value()
		ts.Close()
		d.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(uplinks*b.N)/b.Elapsed().Seconds(), "ingest-msgs/s")
	if recomputes > 0 {
		b.ReportMetric(float64(recomputeNs)/1e6/float64(recomputes), "recompute-ms")
	}
}

// lnsFleetTrace builds the million-node replay workload for
// BenchmarkLNSIngestSharded: a sparse 3-hourly sawtooth (8 transitions
// per node per day → exactly one uplink packet per node), dense node
// IDs spanning thousands of ShardBlock ranges. Pure arithmetic, no RNG.
func lnsFleetTrace(nodes int) *lns.Trace {
	tr := &lns.Trace{SampleEvery: 3 * simtime.Hour}
	for id := 0; id < nodes; id++ {
		soc := 0.5 + 0.4*float64(id%9)/9
		nt := lns.NodeTrace{ID: id, InitialSoC: soc}
		for k := 0; k < 8; k++ {
			at := simtime.Time(k+1) * simtime.Time(3*simtime.Hour)
			if k%2 == 0 {
				soc -= 0.1
			} else {
				soc += 0.08
			}
			soc = min(0.95, max(0.2, soc))
			nt.Transitions = append(nt.Transitions, battery.Transition{At: at, SoC: soc})
		}
		tr.Nodes = append(tr.Nodes, nt)
	}
	return tr
}

// BenchmarkLNSIngestSharded is the fleet-scale rung: a million-node
// single-day replay (one uplink per node, -short shrinks the fleet)
// through the sharded daemon, with as many concurrent loadgen-style
// connections as shards, each owning the node-ID ranges lns.ShardOf
// assigns it. The shards=1 sub-benchmark is the single-lane baseline;
// ingest-msgs/s across the sub-benchmarks is the shard-scaling
// headline cmd/benchjson reports (on a multi-core host shards=4 is
// expected to approach 4x; a GOMAXPROCS=1 runner serializes the lanes
// and measures only the sharding overhead).
func BenchmarkLNSIngestSharded(b *testing.B) {
	nodes := 1_000_000
	if testing.Short() {
		nodes = 32_768
	}
	tr := lnsFleetTrace(nodes)
	batches := lns.BuildBatches(tr, 0, 8, 4096)
	finalAt := lns.LastUplinkAt(batches).Add(simtime.Day)
	var uplinks int
	for _, bb := range batches {
		uplinks += len(bb.Uplinks)
	}

	mustJSON := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	reg := lns.RegisterReq{Nodes: make([]lns.RegisterNode, 0, len(tr.Nodes))}
	for _, nt := range tr.Nodes {
		reg.Nodes = append(reg.Nodes, lns.RegisterNode{Node: nt.ID, SoC: nt.InitialSoC})
	}
	regBody := mustJSON(reg)
	finalBody := mustJSON(lns.RecomputeReq{AtMs: int64(finalAt)})

	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			// One connection per shard, batches partitioned by the same
			// node-ID ranges cmd/loadgen -conns uses; bodies pre-encoded
			// so the timed loop measures the daemon, not the client.
			connBatches := make([][]lns.Batch, shards)
			for _, bb := range batches {
				per := make([][]lns.Uplink, shards)
				for _, u := range bb.Uplinks {
					c := lns.ShardOf(u.Node, shards)
					per[c] = append(per[c], u)
				}
				for c, ups := range per {
					if len(ups) > 0 {
						connBatches[c] = append(connBatches[c], lns.Batch{Uplinks: ups})
					}
				}
			}
			connBodies := make([][][]byte, shards)
			maxLen := 0
			for c, part := range connBatches {
				for _, bb := range part {
					connBodies[c] = append(connBodies[c], mustJSON(bb))
				}
				maxLen = max(maxLen, len(part))
			}

			var recomputeNs, recomputes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := lns.NewDaemon(lns.Config{
					Interval:   simtime.Day,
					Shards:     shards,
					QueueDepth: maxLen + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				ts := httptest.NewServer(d.Handler())
				client := ts.Client()
				post := func(url string, body []byte) (int, error) {
					resp, err := client.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						return 0, err
					}
					resp.Body.Close()
					return resp.StatusCode, nil
				}
				if code, err := post(ts.URL+"/v1/register", regBody); err != nil || code != http.StatusOK {
					b.Fatalf("register: %v status %d", err, code)
				}
				errs := make([]error, shards)
				var wg sync.WaitGroup
				for c := 0; c < shards; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for _, body := range connBodies[c] {
							for {
								code, err := post(ts.URL+"/v1/uplinks", body)
								if err != nil {
									errs[c] = err
									return
								}
								if code == http.StatusAccepted {
									break
								}
								if code != http.StatusTooManyRequests {
									errs[c] = fmt.Errorf("uplinks: status %d", code)
									return
								}
							}
						}
					}(c)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				if code, err := post(ts.URL+"/v1/recompute", finalBody); err != nil || code != http.StatusOK {
					b.Fatalf("recompute: %v status %d", err, code)
				}
				rec := d.Recorder()
				recomputeNs += rec.Counter("lns.recompute_ns_total").Value()
				recomputes += rec.Counter("lns.recomputes").Value()
				ts.Close()
				d.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(uplinks*b.N)/b.Elapsed().Seconds(), "ingest-msgs/s")
			if recomputes > 0 {
				b.ReportMetric(float64(recomputeNs)/1e6/float64(recomputes), "recompute-ms")
			}
		})
	}
}

// BenchmarkSimulatorYear exercises the multi-year regime the paper
// actually simulates (up to 15 years): long runs stress the rolling
// day-cache refills, year-boundary trace factors, and the degradation
// memo across a battery's whole life rather than a single cached day.
// -short trims the horizon to 20 simulated days for the CI smoke gate.
func BenchmarkSimulatorYear(b *testing.B) {
	cfg := config.Default().WithSeed(9)
	cfg.Nodes = 100
	cfg.Duration = 365 * simtime.Day
	if testing.Short() {
		cfg.Duration = 20 * simtime.Day
	}
	warmSim(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(cfg, sim.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	simDays := cfg.Duration.Seconds() / (24 * 3600) * float64(b.N)
	b.ReportMetric(simDays/b.Elapsed().Seconds(), "sim-days/s")
}
