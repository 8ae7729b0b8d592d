package config

import (
	"testing"

	"repro/internal/lora"
	"repro/internal/netserver"
	"repro/internal/simtime"
	"repro/internal/utility"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestDefaultMatchesPaperSetup(t *testing.T) {
	cfg := Default()
	if cfg.Nodes != 500 {
		t.Errorf("Nodes = %d, want 500 (Sec. IV-A1)", cfg.Nodes)
	}
	if cfg.MaxDistanceM != 5000 {
		t.Errorf("MaxDistanceM = %v, want 5 km", cfg.MaxDistanceM)
	}
	if cfg.PeriodMin != 16*simtime.Minute || cfg.PeriodMax != 60*simtime.Minute {
		t.Errorf("period range = [%v,%v], want [16,60] min", cfg.PeriodMin, cfg.PeriodMax)
	}
	if cfg.ForecastWindow != simtime.Minute {
		t.Errorf("forecast window = %v, want 1 min", cfg.ForecastWindow)
	}
	if cfg.WeightB != 1 {
		t.Errorf("w_b = %v, want 1", cfg.WeightB)
	}
	if cfg.BatteryTempC != 25 {
		t.Errorf("battery temp = %v, want 25 C (insulated)", cfg.BatteryTempC)
	}
	if cfg.MaxAttempts != 8 {
		t.Errorf("max attempts = %d, want 8", cfg.MaxAttempts)
	}
	if cfg.PayloadBytes != 10 {
		t.Errorf("payload = %d, want 10 B", cfg.PayloadBytes)
	}
	if cfg.DegradationInterval != simtime.Day {
		t.Errorf("dissemination interval = %v, want daily", cfg.DegradationInterval)
	}
	if cfg.Duration != 5*simtime.Year {
		t.Errorf("duration = %v, want 5 years", cfg.Duration)
	}
}

func TestWithSeedReseedsSubsystems(t *testing.T) {
	cfg := Default().WithSeed(99)
	if cfg.Seed != 99 || cfg.Solar.Seed != 99 || cfg.PathLoss.Seed != 99 {
		t.Errorf("WithSeed did not propagate: %d %d %d", cfg.Seed, cfg.Solar.Seed, cfg.PathLoss.Seed)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"zero nodes", func(s *Scenario) { s.Nodes = 0 }},
		{"more nodes than the server indexes", func(s *Scenario) { s.Nodes = netserver.MaxNodeID + 2 }},
		{"zero distance", func(s *Scenario) { s.MaxDistanceM = 0 }},
		{"zero channels", func(s *Scenario) { s.Channels = 0 }},
		{"zero demodulators", func(s *Scenario) { s.Demodulators = 0 }},
		{"zero gateways", func(s *Scenario) { s.Gateways = 0 }},
		{"inverted period", func(s *Scenario) { s.PeriodMax = s.PeriodMin - 1 }},
		{"negative start spread", func(s *Scenario) { s.StartSpread = -1 }},
		{"zero window", func(s *Scenario) { s.ForecastWindow = 0 }},
		{"period shorter than window", func(s *Scenario) { s.PeriodMin = s.ForecastWindow / 2 }},
		{"zero payload", func(s *Scenario) { s.PayloadBytes = 0 }},
		{"zero ack payload", func(s *Scenario) { s.AckPayloadBytes = 0 }},
		{"zero attempts", func(s *Scenario) { s.MaxAttempts = 0 }},
		{"invalid fixed SF", func(s *Scenario) { s.FixedSF = 13 }},
		{"bad initial SoC", func(s *Scenario) { s.InitialSoC = 1.5 }},
		{"negative sleep power", func(s *Scenario) { s.SleepPowerW = -1 }},
		{"zero sizing attempts", func(s *Scenario) { s.BatterySizingAttempts = 0; s.BatteryCapacityJ = 0 }},
		{"negative supercap", func(s *Scenario) { s.SupercapJ = -1 }},
		{"zero panel multiple", func(s *Scenario) { s.PanelPeakMultiple = 0 }},
		{"bad solar variation", func(s *Scenario) { s.SolarVariation = 2 }},
		{"zero dissemination", func(s *Scenario) { s.DegradationInterval = 0 }},
		{"zero duration", func(s *Scenario) { s.Duration = 0 }},
		{"run-to-eol no cap", func(s *Scenario) { s.RunToEoL = true; s.MaxDuration = 0 }},
		{"unknown protocol", func(s *Scenario) { s.Protocol = "carrier-pigeon" }},
		{"bla bad theta", func(s *Scenario) { s.Theta = 0 }},
		{"bla bad wb", func(s *Scenario) { s.WeightB = 2 }},
		{"bla bad beta", func(s *Scenario) { s.Beta = 0 }},
		{"unknown forecaster", func(s *Scenario) { s.Forecast = "tarot" }},
		{"negative forecast noise", func(s *Scenario) { s.Forecast = ForecastNoisy; s.ForecastNoise = -1 }},
		{"bad battery model", func(s *Scenario) { s.BatteryModel.K1 = 0 }},
		{"bad solar config", func(s *Scenario) { s.Solar.CloudAttenuation = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Default()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
}

func TestValidateAcceptsVariants(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"lorawan ignores theta", func(s *Scenario) { s.Protocol = ProtocolLoRaWAN; s.Theta = 0 }},
		{"theta-only", func(s *Scenario) { s.Protocol = ProtocolThetaOnly; s.Theta = 0.5 }},
		{"fixed SF10", func(s *Scenario) { s.FixedSF = lora.SF10 }},
		{"pinned capacity ignores sizing", func(s *Scenario) { s.BatteryCapacityJ = 100; s.BatterySizingAttempts = 0 }},
		{"run to EoL", func(s *Scenario) { s.RunToEoL = true; s.Duration = 0 }},
		{"supercap hybrid", func(s *Scenario) { s.SupercapJ = 2; s.SupercapLeakW = 1e-5 }},
		{"multi gateway", func(s *Scenario) { s.Gateways = 4 }},
		{"custom utility", func(s *Scenario) { s.Utility = utility.Deadline{Fraction: 0.5} }},
		{"perfect forecast", func(s *Scenario) { s.Forecast = ForecastPerfect }},
		{"as many nodes as the server indexes", func(s *Scenario) { s.Nodes = netserver.MaxNodeID + 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Default()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Errorf("Validate rejected valid variant: %v", err)
			}
		})
	}
}

func TestProtocolLabel(t *testing.T) {
	tests := []struct {
		protocol ProtocolKind
		theta    float64
		want     string
	}{
		{ProtocolLoRaWAN, 1, "LoRaWAN"},
		{ProtocolBLA, 0.05, "H-5"},
		{ProtocolBLA, 0.5, "H-50"},
		{ProtocolBLA, 1, "H-100"},
		{ProtocolThetaOnly, 0.5, "H-50C"},
	}
	for _, tt := range tests {
		cfg := Default()
		cfg.Protocol = tt.protocol
		cfg.Theta = tt.theta
		if got := cfg.ProtocolLabel(); got != tt.want {
			t.Errorf("label(%s,%v) = %q, want %q", tt.protocol, tt.theta, got, tt.want)
		}
	}
}
