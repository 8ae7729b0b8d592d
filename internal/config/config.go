// Package config defines the simulation scenario: every knob of the
// paper's evaluation (Sec. IV-A1) with validation and the published
// defaults.
package config

import (
	"fmt"
	"hash/fnv"

	"repro/internal/battery"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/lora"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/utility"
)

// ProtocolKind selects the MAC protocol every node runs.
type ProtocolKind string

// The protocols under evaluation.
const (
	// ProtocolLoRaWAN is the pure-ALOHA baseline.
	ProtocolLoRaWAN ProtocolKind = "lorawan"
	// ProtocolBLA is the proposed battery lifespan-aware MAC (H-theta).
	ProtocolBLA ProtocolKind = "bla"
	// ProtocolThetaOnly is the H-50C ablation: charge cap without window
	// selection.
	ProtocolThetaOnly ProtocolKind = "theta-only"
)

// ForecastKind selects the green-energy forecaster nodes use.
type ForecastKind string

// The available forecasters.
const (
	// ForecastEWMA is the default on-sensor diurnal-profile EWMA.
	ForecastEWMA ForecastKind = "ewma"
	// ForecastPerfect is the oracle (ablation).
	ForecastPerfect ForecastKind = "perfect"
	// ForecastNoisy is the oracle with multiplicative Gaussian error.
	ForecastNoisy ForecastKind = "noisy"
)

// Scenario is a complete, self-contained description of one simulation
// run. The zero value is not valid; start from Default().
type Scenario struct {
	// Seed drives every random choice in the run.
	Seed uint64

	// Nodes is the network size (paper: up to 500; 100 for run-to-EoL).
	Nodes int
	// MaxDistanceM is the maximum node-gateway distance (paper: 5 km).
	MaxDistanceM float64
	// Channels is the number of 125 kHz uplink channels in use. The
	// paper's testbed uses 1 "to emulate a larger network"; the
	// large-scale evaluation runs in the same congested regime.
	Channels int
	// Demodulators is omega: concurrent receptions each gateway supports.
	Demodulators int
	// Gateways is the number of gateways (the paper's system model allows
	// "one or more"); extras sit on a ring at 60% of the deployment
	// radius. A packet is delivered when any gateway decodes it.
	Gateways int

	// PeriodMin/PeriodMax bound the uniformly drawn per-node sampling
	// period (paper: [16, 60] minutes).
	PeriodMin simtime.Duration
	PeriodMax simtime.Duration
	// StartSpread bounds the first sampling instant: every node's first
	// packet falls uniformly in [0, StartSpread). Zero spreads each node
	// over its own full period (uncorrelated phases). Deployments that
	// power on together (the NS-3 periodic-sender default) use a small
	// spread, which locks equal-period nodes into persistent ALOHA
	// collisions — the regime the paper's window selection disarms.
	StartSpread simtime.Duration
	// ForecastWindow is the forecast-window length (paper: 1 minute).
	ForecastWindow simtime.Duration

	// PayloadBytes is the sensed-data payload (paper: 10 B). Battery
	// transition reports add battery.ReportSize bytes each on top.
	PayloadBytes int
	// AckPayloadBytes is the downlink ACK payload, including the 1-byte
	// w_u piggyback.
	AckPayloadBytes int
	// MaxAttempts caps transmissions per packet (LoRa: 8).
	MaxAttempts int
	// TxPowerDBm is the RF output power of every node.
	TxPowerDBm float64
	// FixedSF forces one spreading factor for all nodes (the testbed
	// uses SF10); zero selects link-budget based assignment.
	FixedSF lora.SpreadingFactor
	// SFMarginDB is the link margin used by SF assignment.
	SFMarginDB float64

	// Protocol selects the MAC; Theta, WeightB, Beta parameterize BLA
	// and ThetaOnly.
	Protocol ProtocolKind
	Theta    float64
	WeightB  float64
	Beta     float64
	// DisableRetxHistory turns off Eq. (14) learning (ablation).
	DisableRetxHistory bool
	// Utility is the data-utility function BLA nodes optimize; nil means
	// the paper's linear Eq. (16). Reported utility metrics always use
	// the linear function so protocols stay comparable.
	Utility utility.Function

	// Forecast selects the green-energy forecaster; ForecastNoise is the
	// relative error of ForecastNoisy; ForecastPrimeDays pretrains the
	// EWMA profile (offline training in the paper).
	Forecast          ForecastKind
	ForecastNoise     float64
	ForecastPrimeDays int

	// Battery model and sizing. BatteryCapacityJ == 0 auto-sizes each
	// node's battery to 24 h of autonomous operation (paper Sec. II-C)
	// assuming BatterySizingAttempts transmission attempts per packet
	// (headroom for retransmission-heavy days and for theta caps).
	BatteryModel          battery.Model
	BatteryTempC          float64
	BatteryCapacityJ      float64
	BatterySizingAttempts float64
	// SupercapJ, when positive, puts a supercapacitor of this capacity
	// in front of every battery (harvest and loads hit it first),
	// suppressing battery cycle aging — the hybrid storage extension the
	// paper's Sec. V leaves as future work. SupercapLeakW is its
	// self-discharge.
	SupercapJ     float64
	SupercapLeakW float64
	// InitialSoC is the deployment state of charge.
	InitialSoC float64
	// SleepPowerW is the node's baseline (sleep) power draw.
	SleepPowerW float64

	// Solar configures the shared irradiance trace; PanelPeakMultiple
	// sizes each panel so peak generation per forecast window funds this
	// many transmissions (paper: 2); SolarVariation is the per-node cloud
	// noise amplitude.
	Solar             energy.SolarConfig
	PanelPeakMultiple float64
	SolarVariation    float64

	// PathLoss is the propagation model.
	PathLoss radio.PathLoss

	// DegradationInterval is how often the gateway recomputes and
	// disseminates w_u (paper: daily); the simulator's recompute tick,
	// which also runs the RunToEoL check, fires at this cadence.
	DegradationInterval simtime.Duration

	// Faults configures control-plane fault injection (downlink/uplink
	// loss, gateway outages, node brownouts) and the node-side
	// stale-weight fallback. The zero value models the paper's perfect
	// control plane and leaves every run byte-identical to a build
	// without the fault layer.
	Faults faults.Config

	// Duration is the simulated time; ignored when RunToEoL is set.
	Duration simtime.Duration
	// RunToEoL ends the run when the first battery reaches end of life
	// (Fig. 7/8). MaxDuration bounds runaway runs.
	RunToEoL    bool
	MaxDuration simtime.Duration
}

// Default returns the paper's evaluation parameters (Sec. IV-A1) for a
// 5-year, 500-node H-50 run.
func Default() Scenario {
	return Scenario{
		Seed:                  1,
		Nodes:                 500,
		MaxDistanceM:          5000,
		Channels:              1,
		Demodulators:          8,
		Gateways:              1,
		PeriodMin:             16 * simtime.Minute,
		PeriodMax:             60 * simtime.Minute,
		StartSpread:           30 * simtime.Second,
		ForecastWindow:        simtime.Minute,
		PayloadBytes:          10,
		AckPayloadBytes:       5,
		MaxAttempts:           8,
		TxPowerDBm:            14,
		SFMarginDB:            3,
		Protocol:              ProtocolBLA,
		Theta:                 0.5,
		WeightB:               1,
		Beta:                  0.3,
		Forecast:              ForecastEWMA,
		ForecastPrimeDays:     7,
		BatteryModel:          battery.DefaultModel(),
		BatterySizingAttempts: 4,
		BatteryTempC:          25,
		InitialSoC:            0.5,
		SleepPowerW:           30e-6,
		Solar:                 energy.DefaultSolarConfig(1),
		PanelPeakMultiple:     2,
		SolarVariation:        0.25,
		PathLoss:              radio.DefaultPathLoss(1),
		DegradationInterval:   simtime.Day,
		Duration:              5 * simtime.Year,
		MaxDuration:           30 * simtime.Year,
	}
}

// WithSeed returns a copy with all random streams reseeded coherently.
func (s Scenario) WithSeed(seed uint64) Scenario {
	s.Seed = seed
	s.Solar.Seed = seed
	s.PathLoss.Seed = seed
	return s
}

// Validate reports the first invalid field.
func (s Scenario) Validate() error {
	switch {
	case s.Nodes <= 0:
		return fmt.Errorf("config: nodes %d must be positive", s.Nodes)
	case s.MaxDistanceM <= 0:
		return fmt.Errorf("config: max distance %v must be positive", s.MaxDistanceM)
	case s.Channels <= 0:
		return fmt.Errorf("config: channels %d must be positive", s.Channels)
	case s.Demodulators <= 0:
		return fmt.Errorf("config: demodulators %d must be positive", s.Demodulators)
	case s.Gateways <= 0:
		return fmt.Errorf("config: gateways %d must be positive", s.Gateways)
	case s.PeriodMin <= 0 || s.PeriodMax < s.PeriodMin:
		return fmt.Errorf("config: period range [%v,%v] invalid", s.PeriodMin, s.PeriodMax)
	case s.StartSpread < 0:
		return fmt.Errorf("config: negative start spread %v", s.StartSpread)
	case s.ForecastWindow <= 0:
		return fmt.Errorf("config: forecast window %v must be positive", s.ForecastWindow)
	case s.PeriodMin < s.ForecastWindow:
		return fmt.Errorf("config: period %v shorter than one forecast window %v", s.PeriodMin, s.ForecastWindow)
	case s.PayloadBytes <= 0:
		return fmt.Errorf("config: payload %d must be positive", s.PayloadBytes)
	case s.AckPayloadBytes <= 0:
		return fmt.Errorf("config: ack payload %d must be positive", s.AckPayloadBytes)
	case s.MaxAttempts <= 0:
		return fmt.Errorf("config: max attempts %d must be positive", s.MaxAttempts)
	case s.FixedSF != 0 && !s.FixedSF.Valid():
		return fmt.Errorf("config: fixed SF %d invalid", int(s.FixedSF))
	case s.InitialSoC < 0 || s.InitialSoC > 1:
		return fmt.Errorf("config: initial SoC %v outside [0,1]", s.InitialSoC)
	case s.BatteryCapacityJ == 0 && s.BatterySizingAttempts <= 0:
		return fmt.Errorf("config: battery sizing attempts %v must be positive", s.BatterySizingAttempts)
	case s.SupercapJ < 0 || s.SupercapLeakW < 0:
		return fmt.Errorf("config: negative supercap parameters")
	case s.SleepPowerW < 0:
		return fmt.Errorf("config: negative sleep power %v", s.SleepPowerW)
	case s.PanelPeakMultiple <= 0:
		return fmt.Errorf("config: panel peak multiple %v must be positive", s.PanelPeakMultiple)
	case s.SolarVariation < 0 || s.SolarVariation > 1:
		return fmt.Errorf("config: solar variation %v outside [0,1]", s.SolarVariation)
	case s.DegradationInterval <= 0:
		return fmt.Errorf("config: degradation interval %v must be positive", s.DegradationInterval)
	case !s.RunToEoL && s.Duration <= 0:
		return fmt.Errorf("config: duration %v must be positive", s.Duration)
	case s.RunToEoL && s.MaxDuration <= 0:
		return fmt.Errorf("config: run-to-EoL needs a positive max duration")
	}
	switch s.Protocol {
	case ProtocolLoRaWAN:
	case ProtocolBLA, ProtocolThetaOnly:
		if s.Theta <= 0 || s.Theta > 1 {
			return fmt.Errorf("config: theta %v outside (0,1]", s.Theta)
		}
		if s.WeightB < 0 || s.WeightB > 1 {
			return fmt.Errorf("config: weight w_b %v outside [0,1]", s.WeightB)
		}
		if s.Beta <= 0 || s.Beta > 1 {
			return fmt.Errorf("config: beta %v outside (0,1]", s.Beta)
		}
	default:
		return fmt.Errorf("config: unknown protocol %q", s.Protocol)
	}
	switch s.Forecast {
	case ForecastEWMA, ForecastPerfect:
	case ForecastNoisy:
		if s.ForecastNoise < 0 {
			return fmt.Errorf("config: negative forecast noise %v", s.ForecastNoise)
		}
	default:
		return fmt.Errorf("config: unknown forecaster %q", s.Forecast)
	}
	if err := s.BatteryModel.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := s.Solar.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// ProtocolLabel returns the display name of the configured protocol
// ("LoRaWAN", "H-50", "H-50C", ...).
func (s Scenario) ProtocolLabel() string {
	switch s.Protocol {
	case ProtocolBLA:
		return fmt.Sprintf("H-%d", int(s.Theta*100+0.5))
	case ProtocolThetaOnly:
		return fmt.Sprintf("H-%dC", int(s.Theta*100+0.5))
	default:
		return "LoRaWAN"
	}
}

// Fingerprint returns a stable 64-bit hash of the scenario for run
// manifests: two runs with equal fingerprints (and equal code) produce
// identical results. It hashes the %+v rendering of the struct — the
// Scenario holds no maps, so the rendering is deterministic.
func (s Scenario) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Exec bundles the execution-strategy knobs shared by the CLIs. They
// are deliberately NOT part of Scenario: Fingerprint hashes the whole
// scenario into run manifests, and neither worker nor shard count may
// change a run's identity — both only choose how the same byte-exact
// result is computed.
type Exec struct {
	// Workers caps the goroutines used for run fan-out and shard
	// phases; 0 (or negative) uses every CPU.
	Workers int
	// Shards is the requested per-cell engine count for each run: 0
	// auto-selects min(gateways, workers), 1 forces the single-heap
	// engine, larger values are clamped to the gateway count.
	Shards int
}
