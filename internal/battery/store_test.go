package battery

import (
	"testing"

	"repro/internal/simtime"
)

func newTestHybrid(t *testing.T, battCap, capCap, leakW float64) (*Hybrid, *Battery) {
	t.Helper()
	b, err := New(DefaultModel(), battCap, 0.5, 25)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHybrid(b, capCap, leakW)
	if err != nil {
		t.Fatal(err)
	}
	return h, b
}

func TestNewHybridValidation(t *testing.T) {
	b, err := New(DefaultModel(), 10, 0.5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHybrid(nil, 1, 0); err == nil {
		t.Error("nil battery should fail")
	}
	if _, err := NewHybrid(b, 0, 0); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := NewHybrid(b, 1, -1); err == nil {
		t.Error("negative leak should fail")
	}
}

func TestHybridChargeOrder(t *testing.T) {
	h, b := newTestHybrid(t, 10, 2, 0)
	// First joules fill the supercapacitor.
	if got := h.Charge(0, 1.5); got != 1.5 {
		t.Errorf("accepted %v, want 1.5", got)
	}
	if h.SupercapStored() != 1.5 {
		t.Errorf("supercap = %v, want 1.5", h.SupercapStored())
	}
	if b.Stored() != 5 {
		t.Errorf("battery should be untouched, got %v", b.Stored())
	}
	// Overflow goes to the battery.
	if got := h.Charge(0, 2); got != 2 {
		t.Errorf("accepted %v, want 2", got)
	}
	if h.SupercapStored() != 2 {
		t.Errorf("supercap = %v, want full 2", h.SupercapStored())
	}
	if b.Stored() != 6.5 {
		t.Errorf("battery = %v, want 6.5", b.Stored())
	}
}

func TestHybridDischargeOrder(t *testing.T) {
	h, b := newTestHybrid(t, 10, 2, 0)
	h.Charge(0, 2)
	// Small draws never touch the battery.
	if got := h.Discharge(0, 1.5); got != 1.5 {
		t.Errorf("supplied %v, want 1.5", got)
	}
	if b.Stored() != 5 {
		t.Errorf("battery should be untouched, got %v", b.Stored())
	}
	if b.PendingTransitions() != 0 {
		t.Error("battery saw no cycling, so no transitions")
	}
	// Bigger draws fall through.
	if got := h.Discharge(0, 3); got != 3 {
		t.Errorf("supplied %v, want 3", got)
	}
	if b.Stored() != 2.5 {
		t.Errorf("battery = %v, want 2.5", b.Stored())
	}
}

func TestHybridCombinedAccounting(t *testing.T) {
	h, _ := newTestHybrid(t, 10, 2, 0)
	h.Charge(0, 1)
	if got := h.Stored(); got != 6 { // 1 supercap + 5 battery
		t.Errorf("Stored = %v, want 6", got)
	}
	if !h.CanSupply(6) || h.CanSupply(6.01) {
		t.Error("CanSupply should reflect the combined charge")
	}
	if got := h.SoC(); got != 0.5 {
		t.Errorf("SoC = %v, want the battery's 0.5", got)
	}
}

func TestHybridLeak(t *testing.T) {
	h, _ := newTestHybrid(t, 10, 2, 0.001) // 1 mW leak
	h.Charge(0, 2)
	// After 1000 s, 1 J has leaked away.
	h.Discharge(simtime.Time(1000*simtime.Second), 0) // no-op, but applies leak
	if got := h.SupercapStored(); !almostEqual(got, 1, 1e-9) {
		t.Errorf("supercap after leak = %v, want 1", got)
	}
	// Leak never goes negative.
	h.Charge(simtime.Time(simtime.Day), 0)
	if got := h.SupercapStored(); got != 0 {
		t.Errorf("supercap = %v, want 0 after long leak", got)
	}
}

// TestHybridSuppressesCycleAging is the design claim: with a
// supercapacitor absorbing the transmission dips, the battery counts
// fewer/smaller cycles than a bare battery under the same load.
func TestHybridSuppressesCycleAging(t *testing.T) {
	bare := newTestBattery(t, 10, 0.5)
	h, wrapped := newTestHybrid(t, 10, 1, 0)

	now := simtime.Time(0)
	for day := 0; day < 120; day++ {
		now = simtime.Time(day) * simtime.Time(simtime.Day)
		for hour := 0; hour < 4; hour++ {
			at := now.Add(simtime.Duration(hour) * simtime.Hour)
			// A 0.5 J transmission dip followed by solar recharge.
			bare.Discharge(at, 0.5)
			bare.Charge(at.Add(30*simtime.Minute), 0.5)
			h.Discharge(at, 0.5)
			h.Charge(at.Add(30*simtime.Minute), 0.5)
		}
	}
	bareCycle := bare.Damage(now).Cycle
	hybridCycle := wrapped.Damage(now).Cycle
	if bareCycle <= 0 {
		t.Fatal("bare battery should accumulate cycle aging")
	}
	if hybridCycle >= bareCycle/2 {
		t.Errorf("hybrid cycle aging %v should be well below bare %v", hybridCycle, bareCycle)
	}
}

func TestHybridDelegations(t *testing.T) {
	h, b := newTestHybrid(t, 10, 2, 0)
	h.SetChargeLimit(0.6)
	if b.ChargeLimit() != 0.6 {
		t.Error("SetChargeLimit should reach the battery")
	}
	now := simtime.Time(simtime.Year)
	if h.Degradation(now) != b.Degradation(now) {
		t.Error("Degradation should delegate")
	}
	if h.Damage(now) != b.Damage(now) {
		t.Error("Damage should delegate")
	}
	if h.AtEoL(now) != b.AtEoL(now) {
		t.Error("AtEoL should delegate")
	}
	if h.Battery() != b {
		t.Error("Battery accessor broken")
	}
	// Transitions pass through once flows reach the battery: the charge
	// overflows the 2 J supercapacitor and the deep discharge drains it.
	h.Discharge(1, 5)
	h.Charge(2, 3)
	h.Discharge(3, 4)
	if got := len(h.AppendTransitions(nil)); got == 0 {
		t.Error("expected delegated transitions")
	}
}

func TestHybridZeroAndNegativeAmounts(t *testing.T) {
	h, _ := newTestHybrid(t, 10, 2, 0)
	if h.Charge(0, -1) != 0 || h.Discharge(0, -1) != 0 {
		t.Error("negative amounts must be no-ops")
	}
}
