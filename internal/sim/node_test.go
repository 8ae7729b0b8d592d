package sim

import (
	"math/rand/v2"
	"testing"

	"repro/internal/battery"
	"repro/internal/energy"
	"repro/internal/lora"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

// flatSource supplies constant power.
type flatSource struct{ watts float64 }

func (s flatSource) Power(simtime.Time) float64 { return s.watts }

func (s flatSource) Energy(from, to simtime.Time) float64 {
	if to <= from {
		return 0
	}
	return s.watts * to.Sub(from).Seconds()
}

// sink is a forecaster that records observations.
type sink struct{ totalJ float64 }

func (s *sink) ForecastWindows(_ simtime.Time, _ simtime.Duration, n int) []float64 {
	return make([]float64, n)
}

func (s *sink) Observe(_, _ simtime.Time, e float64) { s.totalJ += e }

func newBareNode(t *testing.T, capacityJ, initialSoC, sleepW, harvestW float64) (*Node, *sink) {
	t.Helper()
	b, err := battery.New(battery.DefaultModel(), capacityJ, initialSoC, 25)
	if err != nil {
		t.Fatal(err)
	}
	fc := &sink{}
	return &Node{
		ID:     1,
		Params: lora.DefaultParams(),
		Batt:   b,
		Stats:  metrics.NewNodeStats(),
		src:    flatSource{watts: harvestW},
		fc:     fc,
		rng:    rand.New(rand.NewPCG(1, 2)),
		sleepW: sleepW,
	}, fc
}

func TestNodeIntegrateEnergyBalance(t *testing.T) {
	// Harvest 2 mW, sleep 0.5 mW: net +1.5 mW charges the battery.
	n, fc := newBareNode(t, 100, 0.5, 0.5e-3, 2e-3)
	n.Integrate(simtime.Time(simtime.Hour))
	wantNet := (2e-3 - 0.5e-3) * 3600
	if got := n.Batt.Stored() - 50; !closeEnough(got, wantNet) {
		t.Errorf("battery gained %v J, want %v", got, wantNet)
	}
	if want := 2e-3 * 3600; !closeEnough(fc.totalJ, want) {
		t.Errorf("forecaster observed %v J, want %v", fc.totalJ, want)
	}
}

func TestNodeIntegrateDrainsOnDeficit(t *testing.T) {
	// No harvest: sleep drains the battery.
	n, _ := newBareNode(t, 10, 0.5, 1e-3, 0)
	n.Integrate(simtime.Time(simtime.Hour))
	want := 5 - 1e-3*3600
	if got := n.Batt.Stored(); !closeEnough(got, want) {
		t.Errorf("stored = %v, want %v", got, want)
	}
}

func TestNodeIntegrateExtraDraw(t *testing.T) {
	// A 0.2 J radio draw lands in the next balance chunk; harvest within
	// that chunk offsets it (the Eq. 5 switch).
	n, _ := newBareNode(t, 10, 0.5, 0, 0.2/60) // harvest exactly 0.2 J/min
	n.Integrate(simtime.Time(10 * simtime.Minute))
	before := n.Batt.Stored()
	n.Draw(0.2)
	n.Integrate(simtime.Time(11 * simtime.Minute))
	if got := n.Batt.Stored(); !closeEnough(got, before) {
		t.Errorf("covered draw changed battery by %v", got-before)
	}
	if n.Batt.(*battery.Battery).PendingTransitions() != 0 {
		t.Error("fully covered draw must not create SoC transitions")
	}
	// An uncovered draw hits the battery.
	n.Draw(1.0)
	n.Integrate(simtime.Time(12 * simtime.Minute))
	if got := before - n.Batt.Stored(); !closeEnough(got, 0.8) {
		t.Errorf("uncovered draw took %v J from the battery, want 0.8", got)
	}
}

func TestNodeIntegrateIdempotent(t *testing.T) {
	n, _ := newBareNode(t, 10, 0.5, 1e-3, 0)
	n.Integrate(simtime.Time(simtime.Hour))
	got := n.Batt.Stored()
	n.Integrate(simtime.Time(simtime.Hour))        // same instant: no-op
	n.Integrate(simtime.Time(30 * simtime.Minute)) // past: no-op
	if n.Batt.Stored() != got {
		t.Error("repeated/backward integration changed state")
	}
}

func TestParamsForAttemptEscalation(t *testing.T) {
	n, _ := newBareNode(t, 10, 0.5, 0, 0)
	n.Params.SF = lora.SF9
	tests := []struct {
		attempt int
		want    lora.SpreadingFactor
	}{
		{0, lora.SF9},
		{1, lora.SF9},
		{2, lora.SF10},
		{3, lora.SF10},
		{4, lora.SF11},
		{6, lora.SF12},
		{7, lora.SF12},
		{20, lora.SF12}, // capped
	}
	for _, tt := range tests {
		if got := n.ParamsForAttempt(tt.attempt).SF; got != tt.want {
			t.Errorf("attempt %d SF = %v, want %v", tt.attempt, got, tt.want)
		}
	}
	if n.Params.SF != lora.SF9 {
		t.Error("escalation must not mutate the node's base params")
	}
}

func TestDrainReportsCompression(t *testing.T) {
	n, _ := newBareNode(t, 10, 0.5, 0, 0)
	// Create many transitions by zig-zagging the battery.
	for i := 0; i < 6; i++ {
		at := simtime.Time(i) * simtime.Time(simtime.Minute)
		n.Batt.Discharge(at, 0.5+0.1*float64(i))
		n.Batt.Charge(at.Add(30*simtime.Second), 0.5+0.1*float64(i))
	}
	n.drainReports()
	if got := len(n.pendingTrans); got > 2 {
		t.Errorf("one drain queued %d reports, want <= 2 (paper's per-period budget)", got)
	}
	// The kept reports are the extremes.
	if len(n.pendingTrans) == 2 && n.pendingTrans[0].SoC == n.pendingTrans[1].SoC {
		t.Error("kept reports should be distinct extremes")
	}
}

func TestDrainReportsBacklogBounded(t *testing.T) {
	n, _ := newBareNode(t, 10, 0.5, 0, 0)
	for round := 0; round < 40; round++ {
		at := simtime.Time(round) * simtime.Time(simtime.Hour)
		n.Batt.Discharge(at, 1)
		n.Batt.Charge(at.Add(simtime.Minute), 1)
		n.drainReports()
	}
	if got := len(n.pendingTrans); got > 16 {
		t.Errorf("backlog = %d, want bounded at 16", got)
	}
}

func TestEncodeReportsRoundTrip(t *testing.T) {
	n, _ := newBareNode(t, 10, 0.5, 0, 0)
	if got := n.EncodeReports(0, simtime.Minute); got != nil {
		t.Errorf("no pending reports should encode to nil, got %v", got)
	}
	n.Batt.Discharge(simtime.Time(simtime.Minute), 2)
	n.Batt.Charge(simtime.Time(2*simtime.Minute), 1)
	n.Batt.Discharge(simtime.Time(3*simtime.Minute), 1)
	n.drainReports()
	packetAt := simtime.Time(10 * simtime.Minute)
	reports := n.EncodeReports(packetAt, simtime.Minute)
	if len(reports) != len(n.pendingTrans) {
		t.Fatalf("encoded %d, want %d", len(reports), len(n.pendingTrans))
	}
	for i, r := range reports {
		back := r.Decode(packetAt, simtime.Minute)
		if d := back.SoC - n.pendingTrans[i].SoC; d > 1e-4 || d < -1e-4 {
			t.Errorf("report %d SoC %v, want %v", i, back.SoC, n.pendingTrans[i].SoC)
		}
	}
}

// TestEncodeReportsCappedToChargedSlice pins the per-packet report cap:
// an attempt sizes payload and airtime for at most maxReportsPerPacket
// reports, so the uplink must carry exactly those — the most recent
// ones — even when the backlog holds more.
func TestEncodeReportsCappedToChargedSlice(t *testing.T) {
	n, _ := newBareNode(t, 10, 0.5, 0, 0)
	for i := 0; i < 16; i++ {
		n.pendingTrans = append(n.pendingTrans, battery.Transition{
			At:  simtime.Time(i) * simtime.Time(simtime.Minute),
			SoC: 0.1 + 0.05*float64(i),
		})
	}
	packetAt := simtime.Time(20 * simtime.Minute)
	reports := n.EncodeReports(packetAt, simtime.Minute)
	if len(reports) != maxReportsPerPacket {
		t.Fatalf("encoded %d reports from a 16-deep backlog, want %d (the charged slice)",
			len(reports), maxReportsPerPacket)
	}
	tail := n.pendingTrans[len(n.pendingTrans)-maxReportsPerPacket:]
	for i, r := range reports {
		back := r.Decode(packetAt, simtime.Minute)
		if d := back.SoC - tail[i].SoC; d > 1e-4 || d < -1e-4 {
			t.Errorf("report %d SoC %v, want the recent transition's %v", i, back.SoC, tail[i].SoC)
		}
	}
}

// TestNodeRebootLosesVolatileStateAndPaysJoin pins the node half of a
// brownout: the report backlog
// and the battery's unreported transitions are gone, and the rejoin
// exchange is drawn from the next balance chunk.
func TestNodeRebootLosesVolatileStateAndPaysJoin(t *testing.T) {
	n, _ := newBareNode(t, 10, 0.5, 0, 0)
	n.Proto = mac.ALOHA{}
	n.RxEnergyJ = 0.01
	n.Batt.Discharge(simtime.Time(simtime.Minute), 1)
	n.Batt.Charge(simtime.Time(2*simtime.Minute), 0.5)
	n.Reports()
	n.Batt.Discharge(simtime.Time(3*simtime.Minute), 1) // recorded, never reported
	if len(n.pendingTrans) == 0 {
		t.Fatal("setup queued no reports; the assertions below would be vacuous")
	}
	now := simtime.Time(5 * simtime.Minute)
	n.Reboot(now)
	if len(n.pendingTrans) != 0 || len(n.Reports()) != 0 {
		t.Error("reboot must drop the report backlog and the unreported transitions")
	}
	joinE := n.Params.TxEnergy(joinPayloadBytes) + n.RxEnergyJ
	if n.Stats.Brownouts != 1 || n.Stats.TxEnergyJ != joinE {
		t.Errorf("brownouts = %d, tx energy = %v; want 1 and the join exchange %v",
			n.Stats.Brownouts, n.Stats.TxEnergyJ, joinE)
	}
	before := n.Batt.Stored()
	n.Integrate(now.Add(simtime.Minute))
	if got := before - n.Batt.Stored(); !closeEnough(got, joinE) {
		t.Errorf("join exchange took %v J from the battery, want %v", got, joinE)
	}
}

// energySourceStub satisfies energy.Source for interface assertions.
var _ energy.Source = flatSource{}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9*(1+abs(b))
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
