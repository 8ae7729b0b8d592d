package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// smallScenario returns a fast scenario for integration tests.
func smallScenario(protocol config.ProtocolKind) config.Scenario {
	cfg := config.Default().WithSeed(11)
	cfg.Nodes = 15
	cfg.Duration = 3 * simtime.Day
	cfg.Protocol = protocol
	cfg.ForecastPrimeDays = 2
	return cfg
}

func mustRun(t *testing.T, cfg config.Scenario, hooks Hooks) *Result {
	t.Helper()
	s, err := New(cfg, hooks)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestRecomputeTickFollowsDegradationInterval: the gateway recomputes
// once per DegradationInterval, at every grid instant from 0 through the
// end of the run — not on a fixed daily tick that would skip slots of a
// shorter interval and re-evaluate the same slot of a longer one.
func TestRecomputeTickFollowsDegradationInterval(t *testing.T) {
	for _, tc := range []struct {
		interval simtime.Duration
		want     int64
	}{
		{6 * simtime.Hour, 17},
		{simtime.Day, 5},
		{2 * simtime.Day, 3},
	} {
		cfg := smallScenario(config.ProtocolBLA)
		cfg.Duration = 4 * simtime.Day
		cfg.DegradationInterval = tc.interval
		rec := obs.New(obs.Manifest{Tool: "test"}, 0)
		mustRun(t, cfg, Hooks{Obs: rec})
		if got := rec.Counter("netserver.recomputes").Value(); got != tc.want {
			t.Errorf("interval %v: %d recomputes over 4 days, want %d", tc.interval, got, tc.want)
		}
	}
}

func TestNewRejectsInvalidScenario(t *testing.T) {
	cfg := smallScenario(config.ProtocolBLA)
	cfg.Nodes = 0
	if _, err := New(cfg, Hooks{}); err == nil {
		t.Error("invalid scenario should be rejected")
	}
}

func TestRunConservationInvariants(t *testing.T) {
	for _, proto := range []config.ProtocolKind{config.ProtocolLoRaWAN, config.ProtocolBLA, config.ProtocolThetaOnly} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			res := mustRun(t, smallScenario(proto), Hooks{})
			if len(res.Nodes) != 15 {
				t.Fatalf("node results = %d, want 15", len(res.Nodes))
			}
			for _, n := range res.Nodes {
				s := n.Stats
				if s.Generated == 0 {
					t.Errorf("node %d generated no packets in 3 days", n.ID)
				}
				// One packet may still be in flight at the horizon.
				settled := s.Delivered + s.Dropped
				if settled > s.Generated || s.Generated-settled > 1 {
					t.Errorf("node %d: generated %d != delivered %d + dropped %d (+<=1 in flight)",
						n.ID, s.Generated, s.Delivered, s.Dropped)
				}
				if s.Attempts > s.Generated*8 {
					t.Errorf("node %d: attempts %d exceed max 8 per packet", n.ID, s.Attempts)
				}
				if prr := s.PRR(); prr < 0 || prr > 1 {
					t.Errorf("node %d: PRR %v out of range", n.ID, prr)
				}
				if u := s.AvgUtility(); u < 0 || u > 1 {
					t.Errorf("node %d: utility %v out of range", n.ID, u)
				}
				if n.FinalSoC < 0 || n.FinalSoC > 1 {
					t.Errorf("node %d: final SoC %v out of range", n.ID, n.FinalSoC)
				}
				if n.Degradation.Total < 0 || n.Degradation.Total >= 1 {
					t.Errorf("node %d: degradation %v out of range", n.ID, n.Degradation.Total)
				}
			}
		})
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := smallScenario(config.ProtocolBLA)
	a := mustRun(t, cfg, Hooks{})
	b := mustRun(t, cfg, Hooks{})
	for i := range a.Nodes {
		sa, sb := a.Nodes[i].Stats, b.Nodes[i].Stats
		if sa.Generated != sb.Generated || sa.Delivered != sb.Delivered ||
			sa.Attempts != sb.Attempts || sa.TxEnergyJ != sb.TxEnergyJ {
			t.Fatalf("node %d differs across identical runs: %+v vs %+v", i, sa, sb)
		}
		if a.Nodes[i].Degradation.Total != b.Nodes[i].Degradation.Total {
			t.Fatalf("node %d degradation differs across identical runs", i)
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a := mustRun(t, smallScenario(config.ProtocolBLA), Hooks{})
	cfg := smallScenario(config.ProtocolBLA).WithSeed(99)
	b := mustRun(t, cfg, Hooks{})
	var differs bool
	for i := range a.Nodes {
		if a.Nodes[i].Stats.Attempts != b.Nodes[i].Stats.Attempts ||
			a.Nodes[i].Period != b.Nodes[i].Period {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("different seeds should produce different runs")
	}
}

func TestLoRaWANAlwaysWindowZero(t *testing.T) {
	res := mustRun(t, smallScenario(config.ProtocolLoRaWAN), Hooks{})
	for _, n := range res.Nodes {
		for _, b := range n.Stats.WindowHist.Buckets() {
			if b != 0 {
				t.Fatalf("LoRaWAN node %d transmitted in window %d", n.ID, b)
			}
		}
	}
}

func TestBLASpreadsWindows(t *testing.T) {
	cfg := smallScenario(config.ProtocolBLA)
	cfg.Nodes = 30
	cfg.Duration = 5 * simtime.Day
	res := mustRun(t, cfg, Hooks{})
	hist := metrics.NewHistogram()
	for _, n := range res.Nodes {
		for _, b := range n.Stats.WindowHist.Buckets() {
			hist.Add(b)
		}
	}
	if len(hist.Buckets()) < 2 {
		t.Error("BLA should use more than one forecast window across the network")
	}
}

func TestThetaCapRespected(t *testing.T) {
	cfg := smallScenario(config.ProtocolBLA)
	cfg.Theta = 0.5
	s, err := New(cfg, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		// SoC is measured against original capacity; the cap is theta of
		// the (smaller) current capacity, so 0.5 bounds it from above.
		if n.FinalSoC > 0.5+1e-9 {
			t.Errorf("node %d final SoC %v exceeds theta 0.5", n.ID, n.FinalSoC)
		}
	}
}

func TestHooksFire(t *testing.T) {
	var decisions, done int
	hooks := Hooks{
		OnDecision:   func(int, simtime.Time, int, int, bool) { decisions++ },
		OnPacketDone: func(int, bool, int, int) { done++ },
	}
	res := mustRun(t, smallScenario(config.ProtocolBLA), hooks)
	var generated, settled int64
	for _, n := range res.Nodes {
		generated += n.Stats.Generated
		settled += n.Stats.Delivered + n.Stats.Dropped
	}
	if int64(decisions) != generated {
		t.Errorf("OnDecision fired %d times for %d generated packets", decisions, generated)
	}
	if int64(done) != settled {
		t.Errorf("OnPacketDone fired %d times for %d settled packets", done, settled)
	}
}

// TestProtocolShape is the headline integration test: in a congested
// synchronized-start network, the BLA MAC must beat LoRaWAN on
// retransmissions and mean degradation, and LoRaWAN must show higher
// degradation variance.
func TestProtocolShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day 60-node simulation")
	}
	base := config.Default().WithSeed(5)
	base.Nodes = 60
	base.Duration = 10 * simtime.Day

	lw := base
	lw.Protocol = config.ProtocolLoRaWAN
	lwRes := mustRun(t, lw, Hooks{})

	bla := base
	bla.Protocol = config.ProtocolBLA
	blaRes := mustRun(t, bla, Hooks{})

	agg := func(r *Result) (attempts, deg metrics.Welford) {
		for _, n := range r.Nodes {
			attempts.Add(n.Stats.AvgAttempts())
			deg.Add(n.Degradation.Total)
		}
		return attempts, deg
	}
	lwAtt, lwDeg := agg(lwRes)
	blaAtt, blaDeg := agg(blaRes)

	if blaAtt.Mean() >= lwAtt.Mean() {
		t.Errorf("BLA attempts %v should be below LoRaWAN %v", blaAtt.Mean(), lwAtt.Mean())
	}
	if blaDeg.Mean() >= lwDeg.Mean() {
		t.Errorf("BLA mean degradation %v should be below LoRaWAN %v", blaDeg.Mean(), lwDeg.Mean())
	}
	if blaDeg.Variance() >= lwDeg.Variance() {
		t.Errorf("BLA degradation variance %v should be below LoRaWAN %v", blaDeg.Variance(), lwDeg.Variance())
	}
}

// TestRunToEoL verifies the lifespan stop condition using an aggressive
// aging model so the run ends in simulated weeks, not years.
func TestRunToEoL(t *testing.T) {
	cfg := smallScenario(config.ProtocolLoRaWAN)
	cfg.Nodes = 5
	cfg.RunToEoL = true
	cfg.MaxDuration = 2 * simtime.Year
	cfg.BatteryModel.K1 = 3e-7 // ~700x faster calendar aging
	res := mustRun(t, cfg, Hooks{})
	if res.LifespanDays <= 0 {
		t.Fatal("run-to-EoL should record a lifespan")
	}
	if res.Elapsed >= 2*simtime.Year {
		t.Error("run should stop before the max duration")
	}
	var maxDeg float64
	for _, n := range res.Nodes {
		if n.Degradation.Total > maxDeg {
			maxDeg = n.Degradation.Total
		}
	}
	if maxDeg < cfg.BatteryModel.EoLThreshold {
		t.Errorf("max degradation %v below EoL threshold at stop", maxDeg)
	}
}

func TestMonthlySeries(t *testing.T) {
	cfg := smallScenario(config.ProtocolLoRaWAN)
	cfg.Nodes = 5
	cfg.Duration = 95 * simtime.Day
	res := mustRun(t, cfg, Hooks{})
	if got := len(res.MonthlyMaxDeg); got != 3 {
		t.Fatalf("monthly samples = %d, want 3 for 95 days", got)
	}
	for i := 1; i < len(res.MonthlyMaxDeg); i++ {
		if res.MonthlyMaxDeg[i] < res.MonthlyMaxDeg[i-1] {
			t.Errorf("monthly max degradation must be non-decreasing: %v", res.MonthlyMaxDeg)
		}
	}
}

// TestStarvedThetaDropsPackets: a tiny theta cannot bridge nights, so
// Algorithm 1 must FAIL some packets (counted as NeverSent).
func TestStarvedThetaDropsPackets(t *testing.T) {
	cfg := smallScenario(config.ProtocolBLA)
	cfg.Theta = 0.03
	res := mustRun(t, cfg, Hooks{})
	var neverSent int64
	for _, n := range res.Nodes {
		neverSent += n.Stats.NeverSent
	}
	if neverSent == 0 {
		t.Error("theta=0.03 should starve nodes into dropping packets")
	}
}

func TestPerfectAndNoisyForecasters(t *testing.T) {
	for _, fk := range []config.ForecastKind{config.ForecastPerfect, config.ForecastNoisy} {
		cfg := smallScenario(config.ProtocolBLA)
		cfg.Forecast = fk
		cfg.ForecastNoise = 0.3
		res := mustRun(t, cfg, Hooks{})
		var delivered int64
		for _, n := range res.Nodes {
			delivered += n.Stats.Delivered
		}
		if delivered == 0 {
			t.Errorf("forecaster %q: nothing delivered", fk)
		}
	}
}

func TestFixedSF(t *testing.T) {
	cfg := smallScenario(config.ProtocolLoRaWAN)
	cfg.FixedSF = 10
	res := mustRun(t, cfg, Hooks{})
	for _, n := range res.Nodes {
		if n.SF != 10 {
			t.Fatalf("node %d SF = %v, want SF10", n.ID, n.SF)
		}
	}
}
