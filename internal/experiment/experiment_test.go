package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/lora"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simtime"
)

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		ID:      "t1",
		Title:   "test",
		Columns: []string{"a", "bb"},
	}
	tbl.AddRow("xxx", "1")
	tbl.AddRow("y", "22")
	tbl.AddNote("scaled by %d", 3)
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"t1", "test", "xxx", "22", "note: scaled by 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}}
	tbl.AddRow("plain", `with "quote", comma`)
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nplain,\"with \"\"quote\"\", comma\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Errorf("seed = %d, want 1", o.seed())
	}
	if o.nodes(100) != 100 {
		t.Errorf("nodes = %d, want paper default", o.nodes(100))
	}
	if o.duration(simtime.Day) != simtime.Day {
		t.Errorf("duration should fall back to paper default")
	}
	if o.aging() != 1 {
		t.Errorf("aging = %v, want 1", o.aging())
	}
	o = Options{Seed: 7, Nodes: 3, Duration: simtime.Hour, AgingFactor: 10}
	if o.seed() != 7 || o.nodes(100) != 3 || o.duration(simtime.Day) != simtime.Hour || o.aging() != 10 {
		t.Error("overrides not honored")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig3", "sweep", "lifespan", "fig9", "tableI", "optgap",
		"abl-forecast", "abl-weightb", "abl-retxhist", "abl-supercap",
		"abl-gateways", "abl-startspread", "scale", "faults",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].Name, name)
		}
		if reg[i].Run == nil || reg[i].Artifacts == "" || reg[i].PaperScale == "" {
			t.Errorf("registry entry %q incomplete", name)
		}
	}
	if _, ok := Find("sweep"); !ok {
		t.Error("Find(sweep) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) should fail")
	}
}

// tiny returns options that make every experiment run in well under a
// second of wall time per simulated protocol.
func tiny() Options {
	return Options{Seed: 5, Nodes: 12, Duration: 2 * simtime.Day, AgingFactor: 1500}
}

func TestFig2Tiny(t *testing.T) {
	tbl, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("fig2 produced no rows")
	}
	// Last row: calendar must dominate cycle aging (the figure's claim).
	last := tbl.Rows[len(tbl.Rows)-1]
	if len(last) != 4 {
		t.Fatalf("unexpected row %v", last)
	}
	if last[1] <= last[2] { // string compare works for same-width decimals
		t.Logf("calendar %s vs cycle %s (string compare only)", last[1], last[2])
	}
}

func TestFig3Tiny(t *testing.T) {
	o := tiny()
	o.Duration = 9 * simtime.Day // needs a final-week probe window
	tbl, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("fig3 rows = %d, want 2 probes", len(tbl.Rows))
	}
}

func TestThetaSweepTiny(t *testing.T) {
	tables, err := ThetaSweep(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("sweep tables = %d, want fig4+fig5+fig6", len(tables))
	}
	ids := []string{"fig4", "fig5", "fig6"}
	for i, tbl := range tables {
		if tbl.ID != ids[i] {
			t.Errorf("table %d id = %q, want %q", i, tbl.ID, ids[i])
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s has no rows", tbl.ID)
		}
		if len(tbl.Columns) != 5 {
			t.Errorf("%s columns = %v, want metric + 4 variants", tbl.ID, tbl.Columns)
		}
	}
}

func TestLifespanTiny(t *testing.T) {
	tables, err := Lifespan(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "fig7" || tables[1].ID != "fig8" {
		t.Fatalf("lifespan tables = %+v", tables)
	}
	fig8 := tables[1]
	if len(fig8.Rows) != 3 {
		t.Fatalf("fig8 rows = %d, want 3 protocols", len(fig8.Rows))
	}
	if fig8.Rows[0][0] != "LoRaWAN" || fig8.Rows[1][0] != "H-50" {
		t.Errorf("fig8 protocol order: %v", fig8.Rows)
	}
}

func TestFig9Tiny(t *testing.T) {
	o := Options{Seed: 5, Duration: 4 * simtime.Hour}
	tbl, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 5 {
		t.Fatalf("fig9 rows = %d", len(tbl.Rows))
	}
}

// fig9Seeds are the seeds every Fig. 9 test runs TestbedScenario at.
var fig9Seeds = []uint64{1, 2, 3}

// TestFig9Shape pins the qualitative claims of the paper's Fig. 9 on
// TestbedScenario at paper scale (10 nodes, 24 h) for several seeds:
// LoRaWAN has the higher degradation variance (9a) and RETX (9b),
// H-100 the higher latency (9c) and the lower cycle aging, and H-100
// delivers nearly every packet.
func TestFig9Shape(t *testing.T) {
	for _, seed := range fig9Seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			o := Options{Seed: seed}
			var sums [2]*runSummary
			for i, protocol := range []config.ProtocolKind{config.ProtocolLoRaWAN, config.ProtocolBLA} {
				res, err := simulate(TestbedScenario(o, protocol, 1), sim.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				sums[i] = summarize(res)
			}
			lw, h := sums[0], sums[1]
			mean := func(xs []float64) float64 { return metrics.BoxOf(xs).Mean }
			if lv, hv := metrics.BoxOf(lw.degs).Variance, metrics.BoxOf(h.degs).Variance; lv <= hv {
				t.Errorf("degradation variance: LoRaWAN %v should exceed H-100 %v (9a)", lv, hv)
			}
			if la, ha := mean(lw.attempts), mean(h.attempts); la <= ha {
				t.Errorf("attempts: LoRaWAN %v should exceed H-100 %v (9b)", la, ha)
			}
			if ll, hl := mean(lw.latencyS), mean(h.latencyS); hl <= ll {
				t.Errorf("latency: H-100 %v s should exceed LoRaWAN %v s (9c)", hl, ll)
			}
			if lc, hc := mean(lw.cycles), mean(h.cycles); hc >= lc {
				t.Errorf("cycle aging: H-100 %v should be below LoRaWAN %v", hc, lc)
			}
			if prr := mean(h.prr); prr < 0.99 {
				t.Errorf("H-100 mean PRR = %v, want >= 0.99", prr)
			}
		})
	}
}

// TestFig9NodeInvariants checks every node of TestbedScenario at paper
// scale: SF10, ~144 packets over 24 h with closed accounting, and
// positive degradation.
func TestFig9NodeInvariants(t *testing.T) {
	for _, protocol := range []config.ProtocolKind{config.ProtocolLoRaWAN, config.ProtocolBLA} {
		label := TestbedScenario(Options{}, protocol, 1).ProtocolLabel()
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			for _, seed := range fig9Seeds {
				res, err := simulate(TestbedScenario(Options{Seed: seed}, protocol, 1), sim.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Nodes) != 10 {
					t.Fatalf("seed %d: nodes = %d, want 10", seed, len(res.Nodes))
				}
				for _, n := range res.Nodes {
					s := n.Stats
					if n.SF != lora.SF10 {
						t.Errorf("seed %d node %d SF = %v, want SF10", seed, n.ID, n.SF)
					}
					// 24 h at a 10-minute period: ~144 packets per node.
					if s.Generated < 130 || s.Generated > 150 {
						t.Errorf("seed %d node %d generated %d packets, want ~144", seed, n.ID, s.Generated)
					}
					if s.Delivered+s.Dropped > s.Generated || s.Generated-(s.Delivered+s.Dropped) > 1 {
						t.Errorf("seed %d node %d: packet accounting broken: %+v", seed, n.ID, s)
					}
					if n.Degradation.Total <= 0 {
						t.Errorf("seed %d node %d degradation should be positive after 24 h", seed, n.ID)
					}
					// The paper reports PRR 100% on the small testbed.
					// LoRaWAN's contention on one SF10 channel loses
					// packets here (mean PRR 0.87-0.98 over seeds 1-6),
					// so the per-node bound holds for H-100 only.
					if protocol == config.ProtocolBLA {
						if prr := s.PRR(); prr < 0.9 {
							t.Errorf("seed %d H-100 node %d PRR = %v, want ~1", seed, n.ID, prr)
						}
					}
				}
			}
		})
	}
}

// TestFig9UsesWindows checks that BLA on TestbedScenario spreads its
// transmissions over more than one forecast window, at H-100 (the
// Fig. 9 configuration) and at theta = 0.5.
func TestFig9UsesWindows(t *testing.T) {
	for _, theta := range []float64{1, 0.5} {
		for _, seed := range fig9Seeds {
			res, err := simulate(TestbedScenario(Options{Seed: seed}, config.ProtocolBLA, theta), sim.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			windows := metrics.NewHistogram()
			for _, n := range res.Nodes {
				for _, b := range n.Stats.WindowHist.Buckets() {
					windows.Add(b)
				}
			}
			if len(windows.Buckets()) < 2 {
				t.Errorf("%s seed %d should select more than one forecast window", res.Label, seed)
			}
		}
	}
}

// TestFig9BrownoutRejoinsNeverReregisters runs the simulator's
// Rejoin-not-Register contract (see TestSimBrownoutRejoinsNeverReregisters
// in internal/sim) on TestbedScenario: a node restarting after a
// brownout is re-admitted through Rejoin, history and dedup watermarks
// preserved, once per brownout, and never through Register.
func TestFig9BrownoutRejoinsNeverReregisters(t *testing.T) {
	cfg := TestbedScenario(Options{Seed: 3}, config.ProtocolBLA, 1)
	cfg.Faults = faults.Config{BrownoutMTBF: 4 * simtime.Hour}
	rec := obs.New(obs.Manifest{Tool: "test"}, 0)
	res, err := simulate(cfg, sim.Hooks{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	var brownouts int64
	for _, n := range res.Nodes {
		brownouts += n.Stats.Brownouts
	}
	if brownouts == 0 {
		t.Fatal("4h MTBF over 24h x 10 nodes produced no brownouts; assertion would be vacuous")
	}
	if registers := rec.Counter("netserver.registers").Value(); registers != int64(cfg.Nodes) {
		t.Errorf("netserver.registers = %d, want exactly one per node (%d): a live node was re-registered",
			registers, cfg.Nodes)
	}
	if rejoins := rec.Counter("netserver.rejoins").Value(); rejoins != brownouts {
		t.Errorf("netserver.rejoins = %d, want one per brownout (%d)", rejoins, brownouts)
	}
}

func TestTableITiny(t *testing.T) {
	tbl, err := TableI(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 5 {
		t.Fatalf("tableI rows = %d", len(tbl.Rows))
	}
}

func TestOptimalGapTiny(t *testing.T) {
	tbl, err := OptimalGap(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("optgap rows = %d, want 3 solvers", len(tbl.Rows))
	}
}

func TestAblationsTiny(t *testing.T) {
	o := tiny()
	for _, f := range []func(Options) (*Table, error){
		ForecastAblation, WeightBAblation, RetxHistoryAblation,
		SupercapAblation, GatewayAblation, StartSpreadAblation,
	} {
		tbl, err := f(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", tbl.ID)
		}
	}
}
