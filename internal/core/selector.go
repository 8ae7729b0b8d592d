package core

import (
	"fmt"

	"repro/internal/utility"
)

// Inputs carries everything Algorithm 1 needs to pick a forecast window
// for the current sampling period.
type Inputs struct {
	// StoredEnergy is the battery's current stored energy psi in joules.
	StoredEnergy float64
	// NormalizedDegradation is w_u in [0,1], disseminated daily by the
	// gateway: this node's degradation relative to the most degraded
	// battery in the network. A brand-new node uses 0.
	NormalizedDegradation float64
	// ForecastGen is the forecast green-energy generation E_g[t] in
	// joules for each forecast window of the period; its length defines
	// the number of windows |T|.
	ForecastGen []float64
	// EstTxEnergy is the estimated transmission energy e_tx[t] in joules
	// per window, already inflated by the window's expected
	// retransmission count.
	EstTxEnergy []float64
	// MaxTxEnergy is E_tx_max: the worst-case energy of a transmission
	// (all attempts), used to normalize the DIF.
	MaxTxEnergy float64
}

// Validate reports the first inconsistency in the inputs.
func (in Inputs) Validate() error {
	switch {
	case len(in.ForecastGen) == 0:
		return fmt.Errorf("core: no forecast windows")
	case len(in.EstTxEnergy) != len(in.ForecastGen):
		return fmt.Errorf("core: %d energy estimates for %d windows", len(in.EstTxEnergy), len(in.ForecastGen))
	case in.MaxTxEnergy <= 0:
		return fmt.Errorf("core: non-positive max transmission energy %v", in.MaxTxEnergy)
	case in.StoredEnergy < 0:
		return fmt.Errorf("core: negative stored energy %v", in.StoredEnergy)
	case in.NormalizedDegradation < 0 || in.NormalizedDegradation > 1:
		return fmt.Errorf("core: normalized degradation %v outside [0,1]", in.NormalizedDegradation)
	}
	return nil
}

// Decision is the outcome of Algorithm 1 for one packet.
type Decision struct {
	// OK is false when no window can fund the transmission (the packet
	// is dropped, Algorithm 1's FAIL).
	OK bool
	// Window is the chosen zero-based forecast window.
	Window int
	// Objective is the gamma value of the chosen window.
	Objective float64
	// DIF is the chosen window's degradation impact factor.
	DIF float64
	// Utility is the data utility of transmitting in the chosen window.
	Utility float64
}

// Selector runs the on-sensor forecast-window selection (Algorithm 1).
// The zero value is not useful: construct with a utility function and
// the network manager's degradation weight w_b.
type Selector struct {
	utility utility.Function
	weightB float64

	// mu is the per-window utility scratch reused across Select calls to
	// keep the decision path allocation-free on the node.
	mu []float64
	// muN is the window count the mu buffer currently holds values for.
	// utility.Value(t, n) is a pure function of (t, n), so the per-window
	// utilities only change when the window count does.
	muN int
	// muTail is the first window from which mu is non-increasing to the
	// last window, recomputed with mu.
	muTail int
}

// NewSelector returns a selector with the given utility function and
// degradation-vs-utility weight w_b in [0,1].
func NewSelector(fn utility.Function, weightB float64) (*Selector, error) {
	if fn == nil {
		return nil, fmt.Errorf("core: nil utility function")
	}
	if weightB < 0 || weightB > 1 {
		return nil, fmt.Errorf("core: weight w_b %v outside [0,1]", weightB)
	}
	return &Selector{utility: fn, weightB: weightB}, nil
}

// WeightB returns the configured degradation weight w_b.
func (s *Selector) WeightB() float64 { return s.weightB }

// Select implements Algorithm 1: it evaluates the objective
//
//	gamma_t = (1 - mu(t)) + w_u * DIF_t * w_b
//
// for every forecast window and returns the window with the smallest
// gamma (earliest window on ties) among those whose cumulative energy
// (stored + forecast generation up to and including the window) covers
// the estimated transmission energy. This is exactly the window the
// reference formulation picks by sorting windows stably by
// non-decreasing gamma and taking the first feasible one: "first
// feasible in a stable gamma-ascending order" and "feasible window
// minimizing (gamma, index)" are the same window, so the sort is
// unnecessary and selection is a single O(n) pass. If no window is
// feasible the decision reports FAIL and the packet is dropped.
func (s *Selector) Select(in Inputs) (Decision, error) {
	if err := in.Validate(); err != nil {
		return Decision{}, err
	}
	return s.run(in.StoredEnergy, in.NormalizedDegradation, in.ForecastGen, in.EstTxEnergy, 0, nil, in.MaxTxEnergy), nil
}

// SelectEst runs Algorithm 1 with the per-window transmission-energy
// estimate computed on the fly as baseTx·attempts[t] (or baseTx alone
// when attempts is nil — an attempt factor of exactly 1). It is the
// fused form of filling an e_tx slice and calling Select: the arithmetic
// is term-for-term identical — x·1.0 is exact, and the product order
// matches the materialized fill — but the decision touches one slice
// pass fewer and no intermediate buffer, which matters on the per-packet
// hot path. attempts, when non-nil, must have at least len(forecast)
// elements.
func (s *Selector) SelectEst(stored, wu float64, forecast []float64, baseTx float64, attempts []float64, maxTx float64) (Decision, error) {
	switch {
	case len(forecast) == 0:
		return Decision{}, fmt.Errorf("core: no forecast windows")
	case attempts != nil && len(attempts) < len(forecast):
		return Decision{}, fmt.Errorf("core: %d attempt factors for %d windows", len(attempts), len(forecast))
	case maxTx <= 0:
		return Decision{}, fmt.Errorf("core: non-positive max transmission energy %v", maxTx)
	case stored < 0:
		return Decision{}, fmt.Errorf("core: negative stored energy %v", stored)
	case wu < 0 || wu > 1:
		return Decision{}, fmt.Errorf("core: normalized degradation %v outside [0,1]", wu)
	}
	return s.run(stored, wu, forecast, nil, baseTx, attempts, maxTx), nil
}

// run is the shared Algorithm 1 pass. Exactly one of estTx (materialized
// estimates) and baseTx/attempts (computed per window) supplies e_tx[t].
//
// A window whose cumulative energy exactly covers the estimated
// transmission cost is feasible: the battery ends the attempt empty
// but the transmission is funded (Algorithm 1's psi + sum E_g >= e_tx).
//
// The pass stops early once no later window can win. Every gamma is
// (1 − mu[t]) plus w_u·DIF·w_b, a product of values in [0,1], so
// gamma_t >= 1 − mu[t] (float addition of a non-negative term never
// rounds below the other operand). From muTail on mu is non-increasing,
// so 1 − mu[t'] >= 1 − mu[t+1] for every t' > t. Once a feasible window
// is held and 1 − mu[t+1] >= bestG, every later gamma is at least bestG
// and cannot replace it under the strict comparison (ties keep the
// earlier window). A NaN gamma never wins either way, and a NaN mu fails
// both the monotonicity check and the exit test.
func (s *Selector) run(stored, wu float64, forecast, estTx []float64, baseTx float64, attempts []float64, maxTx float64) Decision {
	n := len(forecast)
	s.sizeMu(n)
	best := -1
	var bestG, bestD float64
	cum := stored
	for t := 0; t < n; t++ {
		gen := forecast[t]
		cum += max(0, gen)
		var e float64
		switch {
		case estTx != nil:
			e = estTx[t]
		case attempts != nil:
			e = baseTx * attempts[t]
		default:
			e = baseTx
		}
		d := DIF(e, gen, maxTx)
		g := (1 - s.mu[t]) + wu*d*s.weightB
		if cum-e >= 0 && (best < 0 || g < bestG) {
			best, bestG, bestD = t, g, d
		}
		if best >= 0 && t+1 >= s.muTail && t+1 < n && 1-s.mu[t+1] >= bestG {
			break
		}
	}
	if best < 0 {
		return Decision{}
	}
	return Decision{
		OK:        true,
		Window:    best,
		Objective: bestG,
		DIF:       bestD,
		Utility:   s.mu[best],
	}
}

func (s *Selector) sizeMu(n int) {
	if cap(s.mu) < n {
		s.mu = make([]float64, n)
		s.muN = 0
	} else {
		s.mu = s.mu[:n]
	}
	if s.muN != n {
		for t := 0; t < n; t++ {
			s.mu[t] = s.utility.Value(t, n)
		}
		s.muN = n
		s.muTail = n - 1
		for s.muTail > 0 && s.mu[s.muTail-1] >= s.mu[s.muTail] {
			s.muTail--
		}
	}
}
