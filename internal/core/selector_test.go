package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/utility"
)

func newTestSelector(t *testing.T, weightB float64) *Selector {
	t.Helper()
	s, err := NewSelector(utility.Linear{}, weightB)
	if err != nil {
		t.Fatalf("NewSelector: %v", err)
	}
	return s
}

func TestNewSelectorValidation(t *testing.T) {
	if _, err := NewSelector(nil, 1); err == nil {
		t.Error("nil utility should fail")
	}
	if _, err := NewSelector(utility.Linear{}, -0.1); err == nil {
		t.Error("negative w_b should fail")
	}
	if _, err := NewSelector(utility.Linear{}, 1.1); err == nil {
		t.Error("w_b > 1 should fail")
	}
	s, err := NewSelector(utility.Linear{}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.WeightB(); got != 0.7 {
		t.Errorf("WeightB = %v, want 0.7", got)
	}
}

func TestInputsValidate(t *testing.T) {
	valid := Inputs{
		StoredEnergy: 1,
		ForecastGen:  []float64{0.1, 0.1},
		EstTxEnergy:  []float64{0.03, 0.03},
		MaxTxEnergy:  0.24,
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid inputs rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Inputs)
	}{
		{"no windows", func(in *Inputs) { in.ForecastGen = nil }},
		{"length mismatch", func(in *Inputs) { in.EstTxEnergy = in.EstTxEnergy[:1] }},
		{"zero max tx", func(in *Inputs) { in.MaxTxEnergy = 0 }},
		{"negative stored", func(in *Inputs) { in.StoredEnergy = -1 }},
		{"w_u out of range", func(in *Inputs) { in.NormalizedDegradation = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := valid
			in.ForecastGen = append([]float64(nil), valid.ForecastGen...)
			in.EstTxEnergy = append([]float64(nil), valid.EstTxEnergy...)
			tt.mutate(&in)
			if err := in.Validate(); err == nil {
				t.Error("Validate should fail")
			}
			if _, err := newTestSelector(t, 1).Select(in); err == nil {
				t.Error("Select should propagate validation error")
			}
		})
	}
}

// TestSelectNewNodePrioritizesUtility: a node with w_u = 0 (fresh
// battery) ignores the DIF and transmits as early as energy allows,
// maximizing utility — the paper's "new node" behaviour.
func TestSelectNewNodePrioritizesUtility(t *testing.T) {
	s := newTestSelector(t, 1)
	d, err := s.Select(Inputs{
		StoredEnergy:          1,
		NormalizedDegradation: 0,
		ForecastGen:           []float64{0, 0, 0.5, 0.5},
		EstTxEnergy:           []float64{0.03, 0.03, 0.03, 0.03},
		MaxTxEnergy:           0.24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Window != 0 {
		t.Errorf("decision = %+v, want window 0", d)
	}
	if d.Utility != 1 {
		t.Errorf("utility = %v, want 1", d.Utility)
	}
}

// TestSelectDegradedNodeChasesGreenEnergy reproduces the paper's Fig. 3:
// when harvested energy in the early window cannot cover the
// transmission, the most degraded node (w_u = 1) defers to a window with
// generation, while the least degraded node still transmits early.
func TestSelectDegradedNodeChasesGreenEnergy(t *testing.T) {
	// The utility lost by waiting one of the 4 windows is 0.25; the DIF of
	// an uncovered transmission is 0.12/0.24 = 0.5, so a fully degraded
	// node defers while a fresh one does not.
	in := Inputs{
		StoredEnergy: 1,
		ForecastGen:  []float64{0, 0.16, 0.02, 0},
		EstTxEnergy:  []float64{0.12, 0.12, 0.12, 0.12},
		MaxTxEnergy:  0.24,
	}
	s := newTestSelector(t, 1)

	in.NormalizedDegradation = 1 // most degraded node
	d, err := s.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Window != 1 {
		t.Errorf("degraded node chose %+v, want window 1 (green energy)", d)
	}
	if d.DIF != 0 {
		t.Errorf("DIF in covered window = %v, want 0", d.DIF)
	}

	in.NormalizedDegradation = 0 // freshest node
	d, err = s.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Window != 0 {
		t.Errorf("fresh node chose %+v, want window 0 (utility)", d)
	}
}

// TestSelectWeightBZeroDisablesDegradation: with w_b = 0 the network
// manager disables lifespan awareness entirely.
func TestSelectWeightBZeroDisablesDegradation(t *testing.T) {
	s := newTestSelector(t, 0)
	d, err := s.Select(Inputs{
		StoredEnergy:          1,
		NormalizedDegradation: 1,
		ForecastGen:           []float64{0, 1, 1},
		EstTxEnergy:           []float64{0.03, 0.03, 0.03},
		MaxTxEnergy:           0.24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Window != 0 {
		t.Errorf("w_b=0 decision = %+v, want window 0", d)
	}
}

// TestSelectEnergyFeasibility: early low-gamma windows are skipped when
// the battery plus cumulative generation cannot fund the transmission.
func TestSelectEnergyFeasibility(t *testing.T) {
	s := newTestSelector(t, 1)
	d, err := s.Select(Inputs{
		StoredEnergy:          0,
		NormalizedDegradation: 0,
		ForecastGen:           []float64{0, 0.01, 0.05},
		EstTxEnergy:           []float64{0.04, 0.04, 0.04},
		MaxTxEnergy:           0.24,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cumulative energy: 0, 0.01, 0.06 -> only window 2 clears 0.04.
	if !d.OK || d.Window != 2 {
		t.Errorf("decision = %+v, want window 2", d)
	}
}

// TestSelectExactCoverageIsFeasible pins the feasibility boundary: a
// window whose cumulative energy exactly equals the estimated
// transmission cost must be accepted (psi + sum E_g >= e_tx), not
// rejected — the battery may end the attempt empty, but the
// transmission is funded.
func TestSelectExactCoverageIsFeasible(t *testing.T) {
	s := newTestSelector(t, 1)
	d, err := s.Select(Inputs{
		StoredEnergy:          0.01,
		NormalizedDegradation: 0,
		ForecastGen:           []float64{0.03, 0, 0},
		EstTxEnergy:           []float64{0.04, 0.04, 0.04}, // cum[0] == est exactly
		MaxTxEnergy:           0.24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Window != 0 {
		t.Errorf("decision = %+v, want window 0 accepted at exact energy coverage", d)
	}
}

// TestSelectDecisionReusesScoringValues: the returned DIF/Utility/
// Objective must be the values computed in the scoring loop, mutually
// consistent under the gamma identity.
func TestSelectDecisionReusesScoringValues(t *testing.T) {
	s := newTestSelector(t, 0.5)
	in := Inputs{
		StoredEnergy:          1,
		NormalizedDegradation: 0.8,
		ForecastGen:           []float64{0, 0.02, 0.16, 0},
		EstTxEnergy:           []float64{0.12, 0.12, 0.12, 0.12},
		MaxTxEnergy:           0.24,
	}
	d, err := s.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK {
		t.Fatal("expected a feasible decision")
	}
	wantDIF := DIF(in.EstTxEnergy[d.Window], in.ForecastGen[d.Window], in.MaxTxEnergy)
	if d.DIF != wantDIF {
		t.Errorf("DIF = %v, want %v", d.DIF, wantDIF)
	}
	if want := (1 - d.Utility) + in.NormalizedDegradation*d.DIF*s.WeightB(); math.Abs(d.Objective-want) > 1e-15 {
		t.Errorf("Objective = %v, inconsistent with returned DIF/Utility (want %v)", d.Objective, want)
	}
}

// TestSelectFail: Algorithm 1 returns FAIL when no window is feasible
// (e.g. a long overcast night with a depleted battery).
func TestSelectFail(t *testing.T) {
	s := newTestSelector(t, 1)
	d, err := s.Select(Inputs{
		StoredEnergy:          0.01,
		NormalizedDegradation: 0.5,
		ForecastGen:           []float64{0, 0, 0},
		EstTxEnergy:           []float64{0.04, 0.04, 0.04},
		MaxTxEnergy:           0.24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK {
		t.Errorf("decision = %+v, want FAIL", d)
	}
}

// TestSelectObjectiveOptimal: the chosen window minimizes gamma among
// all feasible windows (brute-force cross-check).
func TestSelectObjectiveOptimal(t *testing.T) {
	s := newTestSelector(t, 1)
	f := func(seed uint64, rawN uint8, rawWu uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := int(rawN%20) + 1
		wu := float64(rawWu%101) / 100
		in := Inputs{
			StoredEnergy:          rng.Float64() * 0.1,
			NormalizedDegradation: wu,
			ForecastGen:           make([]float64, n),
			EstTxEnergy:           make([]float64, n),
			MaxTxEnergy:           0.24,
		}
		for i := 0; i < n; i++ {
			in.ForecastGen[i] = rng.Float64() * 0.08
			in.EstTxEnergy[i] = 0.02 + rng.Float64()*0.1
		}
		d, err := s.Select(in)
		if err != nil {
			return false
		}
		// Brute force.
		bestWindow, bestGamma := -1, math.Inf(1)
		cum := in.StoredEnergy
		for t := 0; t < n; t++ {
			cum += in.ForecastGen[t]
			mu := utility.Linear{}.Value(t, n)
			gamma := (1 - mu) + wu*DIF(in.EstTxEnergy[t], in.ForecastGen[t], in.MaxTxEnergy)
			if cum-in.EstTxEnergy[t] >= 0 && gamma < bestGamma-1e-15 {
				bestGamma, bestWindow = gamma, t
			}
		}
		if bestWindow == -1 {
			return !d.OK
		}
		return d.OK && math.Abs(d.Objective-bestGamma) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSelectTieBreaksEarlier: equal-gamma windows resolve to the earliest.
func TestSelectTieBreaksEarlier(t *testing.T) {
	s, err := NewSelector(utility.Indifferent{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Select(Inputs{
		StoredEnergy:          1,
		NormalizedDegradation: 1,
		ForecastGen:           []float64{0.5, 0.5, 0.5}, // all DIF 0, all utility 1
		EstTxEnergy:           []float64{0.03, 0.03, 0.03},
		MaxTxEnergy:           0.24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Window != 0 {
		t.Errorf("decision = %+v, want earliest window on tie", d)
	}
}

// TestSelectorReuseAcrossSizes: scratch buffers must resize correctly
// when the number of windows changes between calls.
func TestSelectorReuseAcrossSizes(t *testing.T) {
	s := newTestSelector(t, 1)
	for _, n := range []int{16, 60, 3, 40, 1} {
		in := Inputs{
			StoredEnergy: 1,
			ForecastGen:  make([]float64, n),
			EstTxEnergy:  make([]float64, n),
			MaxTxEnergy:  0.24,
		}
		for i := range in.EstTxEnergy {
			in.EstTxEnergy[i] = 0.03
		}
		d, err := s.Select(in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !d.OK || d.Window < 0 || d.Window >= n {
			t.Fatalf("n=%d: decision %+v out of range", n, d)
		}
	}
}

// TestSelectAllocationFree: the steady-state decision path must not
// allocate — it runs on a constrained sensor every sampling period.
func TestSelectAllocationFree(t *testing.T) {
	s := newTestSelector(t, 1)
	in := Inputs{
		StoredEnergy:          1,
		NormalizedDegradation: 0.5,
		ForecastGen:           make([]float64, 60),
		EstTxEnergy:           make([]float64, 60),
		MaxTxEnergy:           0.24,
	}
	for i := range in.EstTxEnergy {
		in.EstTxEnergy[i] = 0.03
		in.ForecastGen[i] = float64(i%7) * 0.01
	}
	if _, err := s.Select(in); err != nil { // warm up scratch buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Select(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Select allocates %v times per run, want 0", allocs)
	}
}

// hump is a test-only non-monotone utility: it rises to a peak a third
// of the way through the period and falls after it, so mu is
// non-increasing only on a suffix.
type hump struct{}

func (hump) Value(window, total int) float64 {
	peak := float64(total) / 3
	return 1 - math.Abs(float64(window)-peak)/float64(total)
}
func (hump) Name() string { return "hump" }

// zigzag is a test-only utility that is non-monotone everywhere.
type zigzag struct{}

func (zigzag) Value(window, total int) float64 { return 0.5 + 0.5*math.Sin(1.7*float64(window)) }
func (zigzag) Name() string                    { return "zigzag" }

// fullScan is the reference Algorithm 1 pass: it scores every window and
// keeps the feasible one with the smallest gamma, earliest on ties.
func fullScan(fn utility.Function, wb, stored, wu float64, forecast []float64, baseTx float64, attempts []float64, maxTx float64) (Decision, bool) {
	n := len(forecast)
	mu := make([]float64, n)
	for t := range mu {
		mu[t] = fn.Value(t, n)
	}
	// exitable reports whether the early exit's condition holds before the
	// last window, so the test can tell it is not vacuous.
	tail := n - 1
	for tail > 0 && mu[tail-1] >= mu[tail] {
		tail--
	}
	exitable := false
	best := -1
	var bestG, bestD float64
	cum := stored
	for t := 0; t < n; t++ {
		cum += max(0, forecast[t])
		e := baseTx
		if attempts != nil {
			e = baseTx * attempts[t]
		}
		d := DIF(e, forecast[t], maxTx)
		g := (1 - mu[t]) + wu*d*wb
		if cum-e >= 0 && (best < 0 || g < bestG) {
			best, bestG, bestD = t, g, d
		}
		if best >= 0 && t+1 >= tail && t+1 < n && 1-mu[t+1] >= bestG {
			exitable = true
		}
	}
	if best < 0 {
		return Decision{}, exitable
	}
	return Decision{OK: true, Window: best, Objective: bestG, DIF: bestD, Utility: mu[best]}, exitable
}

// TestSelectEarlyExitMatchesFullScan: Algorithm 1's early exit must pick
// exactly the decision a scan over every window picks, for monotone and
// non-monotone utilities and random stored energy, w_u, w_b, forecasts
// and attempt factors.
func TestSelectEarlyExitMatchesFullScan(t *testing.T) {
	// exits says whether the utility leaves room for the exit often:
	// zigzag's mu is only non-increasing over its last window or two.
	fns := []struct {
		fn    utility.Function
		exits bool
	}{
		{utility.Linear{}, true}, {utility.Exponential{Lambda: 1}, true}, {utility.Exponential{Lambda: 3}, true},
		{utility.Deadline{Fraction: 0.3, Tail: 0.2}, true}, {utility.Indifferent{}, true}, {hump{}, true}, {zigzag{}, false},
	}
	rng := rand.New(rand.NewPCG(19, 1))
	for _, f := range fns {
		fn := f.fn
		ok, exitable := 0, 0
		const trials = 2000
		for trial := 0; trial < trials; trial++ {
			wb := []float64{0, 0.3, 1, rng.Float64()}[rng.IntN(4)]
			s, err := NewSelector(fn, wb)
			if err != nil {
				t.Fatal(err)
			}
			n := 1 + rng.IntN(64)
			forecast := make([]float64, n)
			for i := range forecast {
				switch rng.IntN(4) {
				case 0: // night: no generation
				case 1:
					forecast[i] = -0.01 * rng.Float64() // clamped to 0 by the pass
				default:
					forecast[i] = 0.08 * rng.Float64()
				}
			}
			var attempts []float64
			if rng.IntN(2) == 0 {
				attempts = make([]float64, n)
				for i := range attempts {
					attempts[i] = 1 + 3*rng.Float64()
				}
			}
			stored := 0.3 * rng.Float64()
			wu := []float64{0, 1, rng.Float64()}[rng.IntN(3)]
			baseTx := 0.01 + 0.09*rng.Float64()
			maxTx := 8 * baseTx
			got, err := s.SelectEst(stored, wu, forecast, baseTx, attempts, maxTx)
			if err != nil {
				t.Fatal(err)
			}
			want, ex := fullScan(fn, wb, stored, wu, forecast, baseTx, attempts, maxTx)
			if got != want {
				t.Fatalf("%s trial %d: SelectEst = %+v, full scan = %+v", fn.Name(), trial, got, want)
			}
			if got.OK {
				ok++
			}
			if ex {
				exitable++
			}
		}
		if ok < trials/4 || ok == trials {
			t.Errorf("%s: %d of %d decisions feasible; want both outcomes well covered", fn.Name(), ok, trials)
		}
		if f.exits && exitable < trials/10 {
			t.Errorf("%s: early exit possible in %d of %d decisions; the test is close to vacuous", fn.Name(), exitable, trials)
		}
	}
}
