// Package mac defines the media-access protocols under evaluation behind
// one interface: the LoRaWAN pure-ALOHA baseline, the paper's battery
// lifespan-aware MAC (BLA, built on internal/core), and the H-50C
// ablation (charge cap only, no window selection).
//
// A Protocol instance belongs to exactly one node and is driven by the
// simulator node (internal/sim) that hosts it.
package mac

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/utility"
)

// Decision is a protocol's verdict for one generated packet.
type Decision struct {
	// Drop means the protocol refuses to transmit the packet (Algorithm
	// 1's FAIL).
	Drop bool
	// Window is the zero-based forecast window of the sampling period in
	// which to transmit.
	Window int
	// SpreadInWindow requests a random transmission offset inside the
	// window to reduce intra-window collisions (Sec. III-B "Network
	// dynamics and channel access"); pure ALOHA transmits immediately.
	SpreadInWindow bool
}

// Outcome reports how a packet's transmission went, so protocols can
// learn.
type Outcome struct {
	// Window the packet was assigned to.
	Window int
	// Attempts made (1 = no retransmissions). Zero for dropped packets.
	Attempts int
	// EnergyJ actually consumed by the radio for this packet, including
	// retransmissions and receive windows.
	EnergyJ float64
	// Delivered is true when an ACK arrived.
	Delivered bool
}

// Protocol is one node's media-access policy.
type Protocol interface {
	// Name identifies the protocol in reports (e.g. "LoRaWAN", "H-50").
	Name() string
	// Theta is the battery charge cap this protocol requests, as a
	// fraction of current maximum capacity (1 = uncapped).
	Theta() float64
	// DecideTx picks the forecast window for a packet generated at gen.
	// windows is the number of forecast windows in this sampling period
	// and storedJ the battery's current stored energy.
	DecideTx(gen simtime.Time, windows int, storedJ float64) Decision
	// OnOutcome feeds back the result of a packet so the protocol's
	// estimators can learn.
	OnOutcome(o Outcome)
	// OnDegradationUpdate delivers the gateway's normalized degradation
	// w_u in [0,1] (piggy-backed on ACKs, at most daily). now is the
	// reception time, which staleness-aware protocols use to age the
	// weight.
	OnDegradationUpdate(now simtime.Time, wu float64)
	// Reset discards the protocol's volatile state (learned estimators,
	// the cached w_u), as a node rebooting after a brownout would.
	Reset()
}

// ALOHA is the LoRaWAN baseline: transmit immediately (window 0), no
// charge cap, learn nothing.
type ALOHA struct{}

var _ Protocol = ALOHA{}

// Name implements Protocol.
func (ALOHA) Name() string { return "LoRaWAN" }

// Theta implements Protocol.
func (ALOHA) Theta() float64 { return 1 }

// DecideTx implements Protocol.
func (ALOHA) DecideTx(simtime.Time, int, float64) Decision {
	return Decision{Window: 0}
}

// OnOutcome implements Protocol.
func (ALOHA) OnOutcome(Outcome) {}

// OnDegradationUpdate implements Protocol.
func (ALOHA) OnDegradationUpdate(simtime.Time, float64) {}

// Reset implements Protocol; ALOHA keeps no volatile state.
func (ALOHA) Reset() {}

// ThetaOnly is the paper's H-50C ablation: it caps the battery at theta
// like BLA but transmits immediately like LoRaWAN, isolating the
// calendar-aging benefit of the charge cap from the window-selection
// machinery.
type ThetaOnly struct {
	theta float64
}

var _ Protocol = (*ThetaOnly)(nil)

// NewThetaOnly returns the ablation protocol with the given charge cap.
func NewThetaOnly(theta float64) (*ThetaOnly, error) {
	if theta <= 0 || theta > 1 {
		return nil, fmt.Errorf("mac: theta %v outside (0,1]", theta)
	}
	return &ThetaOnly{theta: theta}, nil
}

// Name implements Protocol.
func (p *ThetaOnly) Name() string { return fmt.Sprintf("H-%dC", int(p.theta*100)) }

// Theta implements Protocol.
func (p *ThetaOnly) Theta() float64 { return p.theta }

// DecideTx implements Protocol.
func (p *ThetaOnly) DecideTx(simtime.Time, int, float64) Decision {
	return Decision{Window: 0}
}

// OnOutcome implements Protocol.
func (p *ThetaOnly) OnOutcome(Outcome) {}

// OnDegradationUpdate implements Protocol.
func (p *ThetaOnly) OnDegradationUpdate(simtime.Time, float64) {}

// Reset implements Protocol; the charge cap is configuration, not
// volatile state.
func (p *ThetaOnly) Reset() {}

// BLAConfig parameterizes one node's battery lifespan-aware MAC.
type BLAConfig struct {
	// Theta is the battery charge cap (the paper's H-5/H-50/H-100 vary
	// this).
	Theta float64
	// WeightB is w_b, the network manager's degradation-vs-utility
	// weight.
	WeightB float64
	// Beta is the EWMA recency weight of Eq. (13).
	Beta float64
	// Utility is the node's data-utility function; nil means Eq. (16)
	// (linear).
	Utility utility.Function
	// Forecaster predicts per-window green energy generation.
	Forecaster energy.Forecaster
	// Window is the forecast-window length (1 min in the evaluation).
	Window simtime.Duration
	// MaxWindows bounds the number of forecast windows any sampling
	// period can contain (sizing the retransmission history).
	MaxWindows int
	// SingleTxEnergyJ is the energy of one transmission attempt at the
	// node's radio settings (Eq. 6), the estimator's initial value.
	SingleTxEnergyJ float64
	// MaxAttempts is the transmission attempt cap (8 in LoRa).
	MaxAttempts int
	// DisableRetxHistory turns off the Eq. (14) history (ablation).
	DisableRetxHistory bool

	// WuTTL is how long a received w_u stays trusted. When no beacon
	// arrived within the TTL (lost ACKs, gateway outage), decisions use
	// WuStaleFallback instead. Zero disables staleness tracking: the
	// node trusts the last w_u forever, the paper's implicit assumption.
	WuTTL simtime.Duration
	// WuStaleFallback is the w_u assumed while the received weight is
	// stale. A high value is conservative: the selector treats the node
	// as if it were near the network's worst-off battery and weights
	// degradation impact fully.
	WuStaleFallback float64

	// Obs is this node's observability timeline; nil (the default)
	// records nothing.
	Obs *obs.NodeTimeline
}

// Validate reports the first invalid field.
func (c BLAConfig) Validate() error {
	switch {
	case c.Theta <= 0 || c.Theta > 1:
		return fmt.Errorf("mac: theta %v outside (0,1]", c.Theta)
	case c.WeightB < 0 || c.WeightB > 1:
		return fmt.Errorf("mac: weight w_b %v outside [0,1]", c.WeightB)
	case c.Beta <= 0 || c.Beta > 1:
		return fmt.Errorf("mac: beta %v outside (0,1]", c.Beta)
	case c.Forecaster == nil:
		return fmt.Errorf("mac: nil forecaster")
	case c.Window <= 0:
		return fmt.Errorf("mac: non-positive forecast window %v", c.Window)
	case c.MaxWindows <= 0:
		return fmt.Errorf("mac: non-positive max windows %d", c.MaxWindows)
	case c.SingleTxEnergyJ <= 0:
		return fmt.Errorf("mac: non-positive tx energy %v", c.SingleTxEnergyJ)
	case c.MaxAttempts <= 0:
		return fmt.Errorf("mac: non-positive max attempts %d", c.MaxAttempts)
	case c.WuTTL < 0:
		return fmt.Errorf("mac: negative w_u TTL %v", c.WuTTL)
	case c.WuStaleFallback < 0 || c.WuStaleFallback > 1:
		return fmt.Errorf("mac: w_u stale fallback %v outside [0,1]", c.WuStaleFallback)
	}
	return nil
}

// BLA is the proposed battery lifespan-aware MAC: Algorithm 1 with the
// EWMA energy estimator, the per-window retransmission history, and the
// theta charge cap.
type BLA struct {
	cfg       BLAConfig
	selector  *core.Selector
	estimator *core.TxEnergyEstimator
	history   *core.RetxHistory

	wu      float64
	wuAt    simtime.Time // when the current w_u arrived
	wuFresh bool         // a beacon arrived since construction/reset

	staleDecisions int64

	// scratch, reused across decisions
	estTx []float64
}

var _ Protocol = (*BLA)(nil)

// NewBLA builds the protocol instance for one node.
func NewBLA(cfg BLAConfig) (*BLA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fn := cfg.Utility
	if fn == nil {
		fn = utility.Linear{}
	}
	sel, err := core.NewSelector(fn, cfg.WeightB)
	if err != nil {
		return nil, err
	}
	hist, err := core.NewRetxHistory(cfg.MaxWindows, cfg.MaxAttempts-1)
	if err != nil {
		return nil, err
	}
	return &BLA{
		cfg:       cfg,
		selector:  sel,
		estimator: core.NewTxEnergyEstimator(cfg.Beta, cfg.SingleTxEnergyJ),
		history:   hist,
	}, nil
}

// Name implements Protocol; e.g. theta 0.5 reports as "H-50".
func (p *BLA) Name() string { return fmt.Sprintf("H-%d", int(p.cfg.Theta*100+0.5)) }

// Theta implements Protocol.
func (p *BLA) Theta() float64 { return p.cfg.Theta }

// NormalizedDegradation returns the latest w_u received.
func (p *BLA) NormalizedDegradation() float64 { return p.wu }

// StaleDecisions returns how many transmit decisions fell back to the
// conservative w_u because the received weight had exceeded its TTL.
func (p *BLA) StaleDecisions() int64 { return p.staleDecisions }

// effectiveWu returns the w_u Algorithm 1 should trust at the given
// decision time: the received weight while fresh, the conservative
// fallback once the TTL elapsed (or before any beacon arrived).
func (p *BLA) effectiveWu(at simtime.Time) float64 {
	if p.cfg.WuTTL <= 0 {
		return p.wu
	}
	if !p.wuFresh || at.Sub(p.wuAt) > p.cfg.WuTTL {
		p.staleDecisions++
		p.cfg.Obs.StaleWu()
		return p.cfg.WuStaleFallback
	}
	return p.wu
}

// DecideTx implements Protocol by running Algorithm 1.
func (p *BLA) DecideTx(gen simtime.Time, windows int, storedJ float64) Decision {
	if windows <= 0 {
		return Decision{Drop: true}
	}
	// The per-window transmission estimate is base·attempts[t]; the
	// fused SelectEst computes it inline instead of materializing an
	// e_tx slice per packet. E_tx_max of Eq. (15) is the worst-case
	// energy budget of a packet (all attempts). The estimate e_tx[t]
	// carries the window's expected attempt count, so crowded windows
	// score a proportionally higher DIF instead of saturating at 1 —
	// this gradient is what spreads nodes across windows (Fig. 4).
	base := p.estimator.Estimate()
	maxTx := p.cfg.SingleTxEnergyJ * float64(p.cfg.MaxAttempts)
	var attempts []float64
	if !p.cfg.DisableRetxHistory {
		if attempts = p.history.AttemptsVec(windows); attempts == nil {
			// More windows than the history tracks (shrunken sampling
			// period): fall back to clamped per-window queries.
			if cap(p.estTx) < windows {
				p.estTx = make([]float64, windows)
			}
			attempts = p.estTx[:windows]
			for t := range attempts {
				attempts[t] = p.history.ExpectedAttempts(t)
			}
		}
	}
	forecast := p.cfg.Forecaster.ForecastWindows(gen, p.cfg.Window, windows)
	d, err := p.selector.SelectEst(max(0, storedJ), p.effectiveWu(gen), forecast, base, attempts, maxTx)
	if err != nil || !d.OK {
		return Decision{Drop: true}
	}
	p.cfg.Obs.SetDIF(d.DIF)
	return Decision{Window: d.Window, SpreadInWindow: true}
}

// OnOutcome implements Protocol: the actual energy feeds the EWMA
// (Eq. 13) and the retransmission count feeds the window history
// (Eq. 14).
func (p *BLA) OnOutcome(o Outcome) {
	if o.Attempts <= 0 {
		return
	}
	p.estimator.Observe(o.EnergyJ)
	if !p.cfg.DisableRetxHistory {
		p.history.Observe(o.Window, o.Attempts-1)
	}
}

// OnDegradationUpdate implements Protocol.
func (p *BLA) OnDegradationUpdate(now simtime.Time, wu float64) {
	p.wu = min(1, max(0, wu))
	p.wuAt = now
	p.wuFresh = true
}

// Reset implements Protocol: a brownout wipes the cached w_u and the
// learned estimators (Eq. 13 EWMA, Eq. 14 history). The stale-decision
// counter survives — it is accounting, not protocol state.
func (p *BLA) Reset() {
	p.wu = 0
	p.wuAt = 0
	p.wuFresh = false
	p.estimator.Reset()
	p.history.Reset()
}
