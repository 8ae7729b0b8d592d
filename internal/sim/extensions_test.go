package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/utility"
)

// TestMultiGatewayImprovesReception: in the congested single-channel
// regime, adding gateways must not hurt and should help the worst nodes
// (spatial diversity rescues collision and link-budget losses).
func TestMultiGatewayImprovesReception(t *testing.T) {
	if testing.Short() {
		t.Skip("60-node multi-day simulation")
	}
	base := config.Default().WithSeed(21)
	base.Nodes = 60
	base.Duration = 6 * simtime.Day
	base.Protocol = config.ProtocolLoRaWAN

	run := func(gateways int) (mean, minPRR float64) {
		cfg := base
		cfg.Gateways = gateways
		res := mustRun(t, cfg, Hooks{})
		var prr metrics.Welford
		for _, n := range res.Nodes {
			prr.Add(n.Stats.PRR())
		}
		return prr.Mean(), prr.Min()
	}

	mean1, min1 := run(1)
	mean4, min4 := run(4)
	if mean4 < mean1-0.02 {
		t.Errorf("4 gateways mean PRR %.3f should not be below 1 gateway %.3f", mean4, mean1)
	}
	if min4 < min1-0.02 {
		t.Errorf("4 gateways min PRR %.3f should not be below 1 gateway %.3f", min4, min1)
	}
	t.Logf("PRR 1 gw: mean %.3f min %.3f; 4 gw: mean %.3f min %.3f", mean1, min1, mean4, min4)
}

// TestSupercapReducesBatteryCycling: the hybrid store must strictly
// reduce battery cycle aging under identical traffic.
func TestSupercapReducesBatteryCycling(t *testing.T) {
	base := smallScenario(config.ProtocolLoRaWAN)
	base.Duration = 6 * simtime.Day

	cycleOf := func(supercapJ float64) float64 {
		cfg := base
		cfg.SupercapJ = supercapJ
		cfg.SupercapLeakW = 1e-5
		res := mustRun(t, cfg, Hooks{})
		var cyc metrics.Welford
		for _, n := range res.Nodes {
			cyc.Add(n.Degradation.Cycle)
		}
		return cyc.Mean()
	}

	bare := cycleOf(0)
	buffered := cycleOf(3)
	if bare <= 0 {
		t.Fatal("expected non-zero cycle aging")
	}
	if buffered >= bare {
		t.Errorf("supercap cycle aging %v should be below bare battery %v", buffered, bare)
	}
}

// TestCustomUtilityChangesBehavior: an indifferent utility lets degraded
// nodes defer much more than the default linear one.
func TestCustomUtilityChangesBehavior(t *testing.T) {
	base := smallScenario(config.ProtocolBLA)
	base.Duration = 6 * simtime.Day

	meanWindow := func(fn utility.Function) float64 {
		cfg := base
		cfg.Utility = fn
		res := mustRun(t, cfg, Hooks{})
		var sum, n float64
		for _, nr := range res.Nodes {
			for _, b := range nr.Stats.WindowHist.Buckets() {
				sum += float64(b) * float64(nr.Stats.WindowHist.Count(b))
				n += float64(nr.Stats.WindowHist.Count(b))
			}
		}
		if n == 0 {
			t.Fatal("no transmissions")
		}
		return sum / n
	}

	linear := meanWindow(nil) // default Eq. 16
	indifferent := meanWindow(utility.Indifferent{})
	if indifferent <= linear {
		t.Errorf("delay-indifferent nodes should defer more: %v vs linear %v", indifferent, linear)
	}
}

// TestGatewayCountReflectedInMedium sanity-checks construction.
func TestGatewayCountReflectedInMedium(t *testing.T) {
	cfg := smallScenario(config.ProtocolLoRaWAN)
	cfg.Gateways = 3
	s, err := New(cfg, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.med.Gateways(); got != 3 {
		t.Errorf("medium gateways = %d, want 3", got)
	}
	for _, n := range s.Nodes() {
		if len(n.RxPowerDBm) != 3 {
			t.Fatalf("node %d has %d gateway powers, want 3", n.ID, len(n.RxPowerDBm))
		}
	}
}
