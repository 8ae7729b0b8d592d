package mac

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/utility"
)

// flatForecaster predicts the same energy for every window.
type flatForecaster struct{ perWindow float64 }

func (f flatForecaster) ForecastWindows(_ simtime.Time, _ simtime.Duration, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f.perWindow
	}
	return out
}

func (f flatForecaster) Observe(simtime.Time, simtime.Time, float64) {}

var _ energy.Forecaster = flatForecaster{}

func validBLAConfig() BLAConfig {
	return BLAConfig{
		Theta:           0.5,
		WeightB:         1,
		Beta:            0.3,
		Forecaster:      flatForecaster{perWindow: 0.05},
		Window:          simtime.Minute,
		MaxWindows:      60,
		SingleTxEnergyJ: 0.03,
		MaxAttempts:     8,
	}
}

func TestALOHA(t *testing.T) {
	var p Protocol = ALOHA{}
	if p.Name() != "LoRaWAN" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Theta() != 1 {
		t.Errorf("Theta = %v, want 1 (no cap)", p.Theta())
	}
	d := p.DecideTx(0, 20, 5)
	if d.Drop || d.Window != 0 || d.SpreadInWindow {
		t.Errorf("DecideTx = %+v, want immediate window 0", d)
	}
	// Learning hooks are no-ops but must not panic.
	p.OnOutcome(Outcome{Window: 0, Attempts: 3, EnergyJ: 0.1, Delivered: true})
	p.OnDegradationUpdate(0, 0.7)
}

func TestThetaOnly(t *testing.T) {
	p, err := NewThetaOnly(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "H-50C" {
		t.Errorf("Name = %q, want H-50C", p.Name())
	}
	if p.Theta() != 0.5 {
		t.Errorf("Theta = %v", p.Theta())
	}
	if d := p.DecideTx(0, 20, 5); d.Drop || d.Window != 0 {
		t.Errorf("DecideTx = %+v, want immediate window 0", d)
	}
	for _, bad := range []float64{0, -0.5, 1.5} {
		if _, err := NewThetaOnly(bad); err == nil {
			t.Errorf("NewThetaOnly(%v) should fail", bad)
		}
	}
}

func TestBLAConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*BLAConfig)
	}{
		{"theta 0", func(c *BLAConfig) { c.Theta = 0 }},
		{"theta > 1", func(c *BLAConfig) { c.Theta = 1.2 }},
		{"weightB < 0", func(c *BLAConfig) { c.WeightB = -1 }},
		{"beta 0", func(c *BLAConfig) { c.Beta = 0 }},
		{"nil forecaster", func(c *BLAConfig) { c.Forecaster = nil }},
		{"zero window", func(c *BLAConfig) { c.Window = 0 }},
		{"zero max windows", func(c *BLAConfig) { c.MaxWindows = 0 }},
		{"zero tx energy", func(c *BLAConfig) { c.SingleTxEnergyJ = 0 }},
		{"zero attempts", func(c *BLAConfig) { c.MaxAttempts = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validBLAConfig()
			tt.mutate(&cfg)
			if _, err := NewBLA(cfg); err == nil {
				t.Error("NewBLA should reject invalid config")
			}
		})
	}
}

func TestBLAName(t *testing.T) {
	tests := []struct {
		theta float64
		want  string
	}{
		{0.05, "H-5"},
		{0.5, "H-50"},
		{1, "H-100"},
	}
	for _, tt := range tests {
		cfg := validBLAConfig()
		cfg.Theta = tt.theta
		p, err := NewBLA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Name(); got != tt.want {
			t.Errorf("theta %v Name = %q, want %q", tt.theta, got, tt.want)
		}
	}
}

func TestBLAFreshNodeTransmitsEarly(t *testing.T) {
	p, err := NewBLA(validBLAConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := p.DecideTx(0, 20, 1.0)
	if d.Drop {
		t.Fatal("well-charged fresh node should not drop")
	}
	if d.Window != 0 {
		t.Errorf("fresh node window = %d, want 0", d.Window)
	}
	if !d.SpreadInWindow {
		t.Error("BLA should randomize the offset inside the window")
	}
}

// TestBLADegradedDefersToGreenWindow: after a w_u update, a degraded
// node with an empty battery and no early energy defers to the window
// where generation covers the transmission.
func TestBLADegradedDefersToGreenWindow(t *testing.T) {
	cfg := validBLAConfig()
	cfg.Forecaster = rampForecaster{}
	p, err := NewBLA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.OnDegradationUpdate(0, 1)
	d := p.DecideTx(0, 10, 1.0)
	if d.Drop {
		t.Fatal("should not drop")
	}
	if d.Window == 0 {
		t.Error("fully degraded node should defer past the zero-energy window")
	}
}

// rampForecaster: no energy in window 0, plenty afterwards.
type rampForecaster struct{}

func (rampForecaster) ForecastWindows(_ simtime.Time, _ simtime.Duration, n int) []float64 {
	out := make([]float64, n)
	for i := 1; i < n; i++ {
		out[i] = 0.1
	}
	return out
}

func (rampForecaster) Observe(simtime.Time, simtime.Time, float64) {}

// TestBLADropsWhenInfeasible: dead battery, no forecast energy.
func TestBLADropsWhenInfeasible(t *testing.T) {
	cfg := validBLAConfig()
	cfg.Forecaster = flatForecaster{perWindow: 0}
	p, err := NewBLA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := p.DecideTx(0, 10, 0)
	if !d.Drop {
		t.Errorf("decision = %+v, want drop", d)
	}
	// Zero windows also drops defensively.
	if d := p.DecideTx(0, 0, 1); !d.Drop {
		t.Error("zero windows should drop")
	}
}

// TestBLARetxHistorySteersAway: a window with a heavy collision history
// gets an inflated energy estimate and is avoided by a degraded node in
// favour of a clean window with the same forecast.
func TestBLARetxHistorySteersAway(t *testing.T) {
	cfg := validBLAConfig()
	cfg.Forecaster = flatForecaster{perWindow: 0.035} // covers 1 attempt, not 8
	p, err := NewBLA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.OnDegradationUpdate(0, 1)

	// Teach the protocol that window 0 is crowded: 7 retransmissions per
	// packet, while other windows stay clean.
	for i := 0; i < 20; i++ {
		p.OnOutcome(Outcome{Window: 0, Attempts: 8, EnergyJ: 8 * 0.03, Delivered: true})
	}

	d := p.DecideTx(0, 10, 1.0)
	if d.Drop {
		t.Fatal("should not drop")
	}
	if d.Window == 0 {
		t.Error("node should avoid the historically crowded window 0")
	}
}

// TestBLARetxHistoryAblation: with the history disabled, the same
// learning leaves the decision unchanged.
func TestBLARetxHistoryAblation(t *testing.T) {
	cfg := validBLAConfig()
	cfg.DisableRetxHistory = true
	cfg.Forecaster = flatForecaster{perWindow: 0.035}
	p, err := NewBLA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.OnDegradationUpdate(0, 1)
	for i := 0; i < 20; i++ {
		p.OnOutcome(Outcome{Window: 0, Attempts: 8, EnergyJ: 8 * 0.03, Delivered: true})
	}
	d := p.DecideTx(0, 10, 1.0)
	if d.Drop || d.Window != 0 {
		t.Errorf("ablated protocol decision = %+v, want window 0", d)
	}
}

func TestBLAEWMALearnsFromOutcomes(t *testing.T) {
	p, err := NewBLA(validBLAConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Zero-attempt outcomes (drops) must not feed the estimator.
	p.OnOutcome(Outcome{Window: 0, Attempts: 0, EnergyJ: 99})
	// A string of expensive packets raises the estimate.
	for i := 0; i < 50; i++ {
		p.OnOutcome(Outcome{Window: 3, Attempts: 4, EnergyJ: 0.12, Delivered: true})
	}
	// With the estimate raised to 0.12 J and 0.05 J harvest per window, a
	// drained battery can first afford the transmission in window 2
	// (cumulative harvest 0.15 J); without learning it would pick window 0.
	d := p.DecideTx(0, 10, 0)
	if d.Drop {
		t.Fatal("cumulative harvest should make a later window feasible")
	}
	if d.Window != 2 {
		t.Errorf("window = %d; estimator should have pushed the choice to window 2", d.Window)
	}
}

func TestBLADegradationUpdateClamped(t *testing.T) {
	p, err := NewBLA(validBLAConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.OnDegradationUpdate(0, 7)
	if got := p.NormalizedDegradation(); got != 1 {
		t.Errorf("w_u = %v, want clamped to 1", got)
	}
	p.OnDegradationUpdate(0, -3)
	if got := p.NormalizedDegradation(); got != 0 {
		t.Errorf("w_u = %v, want clamped to 0", got)
	}
}

// TestBLAStaleWuAccounting steps a BLA with a w_u TTL through stale
// before any beacon → fresh after one → stale after the TTL → fresh
// after a new beacon → stale after a brownout. The received w_u is 0
// and the stale fallback 1, so the chosen window shows which weight
// each decision used: 0 transmits at once, 1 defers past
// rampForecaster's dark window 0. Every stale decision must count once
// in StaleDecisions and once in the obs timeline.
func TestBLAStaleWuAccounting(t *testing.T) {
	const ttl = 6 * simtime.Hour
	cfg := validBLAConfig()
	cfg.Forecaster = rampForecaster{}
	cfg.WuTTL = ttl
	cfg.WuStaleFallback = 1
	cfg.Obs = obs.New(obs.Manifest{}, 0).Node(0)
	p, err := NewBLA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	beacon := simtime.Time(simtime.Hour)
	later := beacon.Add(2 * ttl)

	steps := []struct {
		name      string
		at        simtime.Time
		before    func()
		wantStale int64
	}{
		{"stale before any beacon", beacon.Add(-simtime.Minute), nil, 1},
		{"fresh after beacon", beacon.Add(simtime.Minute), func() { p.OnDegradationUpdate(beacon, 0) }, 1},
		{"fresh at the TTL edge", beacon.Add(ttl), nil, 1},
		{"stale past the TTL", beacon.Add(ttl + simtime.Second), nil, 2},
		{"fresh after a new beacon", later, func() { p.OnDegradationUpdate(later, 0) }, 2},
		{"stale after reset", later.Add(simtime.Minute), p.Reset, 3},
		{"still stale", later.Add(2 * simtime.Minute), nil, 4},
	}
	prev := int64(0)
	for _, st := range steps {
		if st.before != nil {
			st.before()
		}
		d := p.DecideTx(st.at, 10, 1.0)
		if d.Drop {
			t.Fatalf("%s: dropped", st.name)
		}
		usedFallback := st.wantStale > prev
		if deferred := d.Window != 0; deferred != usedFallback {
			t.Errorf("%s: window %d, want fallback w_u used = %v", st.name, d.Window, usedFallback)
		}
		if got := p.StaleDecisions(); got != st.wantStale {
			t.Errorf("%s: StaleDecisions = %d, want %d", st.name, got, st.wantStale)
		}
		cfg.Obs.Record(st.at, 0, 0, 0, 0, 0)
		samples := cfg.Obs.Samples()
		if got := samples[len(samples)-1].StaleWu; got != st.wantStale {
			t.Errorf("%s: obs stale_wu = %d, want %d", st.name, got, st.wantStale)
		}
		prev = st.wantStale
	}
}

func TestBLAUtilityDefaultsToLinear(t *testing.T) {
	cfg := validBLAConfig()
	cfg.Utility = nil
	if _, err := NewBLA(cfg); err != nil {
		t.Fatalf("nil utility should default to linear: %v", err)
	}
	cfg.Utility = utility.Deadline{Fraction: 0.5}
	if _, err := NewBLA(cfg); err != nil {
		t.Fatalf("custom utility rejected: %v", err)
	}
}
