package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// soaOracleScenario builds one randomized-by-seed scenario with faults
// and enough variety (theta, initial SoC, node count, w_u TTL) to drive
// every kernel branch: deep-discharge nights, full-accept charging runs,
// at-capacity spans, partial-minute steps at event times, brownout
// interference with the armed spans, and BLA decisions on stale w_u.
func soaOracleScenario(seed uint64) config.Scenario {
	cfg := config.Default().WithSeed(seed)
	cfg.Nodes = 12 + int(seed%3)*6
	cfg.Gateways = 4
	cfg.MaxDistanceM = 9000
	cfg.Channels = 2
	cfg.Demodulators = 2
	cfg.Duration = 2 * simtime.Day
	cfg.ForecastPrimeDays = 2
	// Cycle through theta caps: 1.0 exercises the clamp-moving edge the
	// at-capacity proof rejects, 0.5 the paper's H-50, 0.9 a battery
	// that reaches its cap mid-afternoon and arms the no-op span.
	cfg.Theta = []float64{1.0, 0.5, 0.9, 0.7}[seed%4]
	cfg.InitialSoC = []float64{0.5, 0.9, 0.3}[seed%3]
	cfg.Faults = faults.Config{
		DownlinkLoss: 0.05,
		UplinkLoss:   0.05,
		UplinkDup:    0.05,
		OutageStart:  20 * simtime.Hour,
		OutageLen:    2 * simtime.Hour,
		OutageEvery:  simtime.Day,
		BrownoutMTBF: 4 * simtime.Day,
		// Indexed by seed/3 so every TTL meets every InitialSoC above.
		WuTTL:           []simtime.Duration{0, 6 * simtime.Hour, simtime.Day}[seed/3%3],
		WuStaleFallback: 1,
	}
	return cfg
}

// TestSoACoreMatchesPointerCore pins the fused SoA integration kernel
// (integrateFast's two passes, with the battery's at-capacity and
// full-accept spans and collapsed runs) bit-for-bit against the generic
// reference path across randomized scenarios, with faults and obs
// recording on. Every per-node float in the Result and the complete obs
// export must match byte for byte.
func TestSoACoreMatchesPointerCore(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		cfg := soaOracleScenario(seed)
		man := obs.Manifest{Experiment: "soa-oracle", Seed: seed, Nodes: cfg.Nodes}

		run := func(generic bool) (*Result, []byte) {
			debugGenericIntegrate = generic
			defer func() { debugGenericIntegrate = false }()
			rec := obs.New(man, 30*simtime.Minute)
			s, err := New(cfg, Hooks{Obs: rec})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			var buf bytes.Buffer
			if err := rec.WriteJSONL(&buf); err != nil {
				t.Fatalf("WriteJSONL: %v", err)
			}
			return res, buf.Bytes()
		}

		refRes, refObs := run(true)
		res, out := run(false)
		if !reflect.DeepEqual(refRes, res) {
			t.Errorf("seed %d: fast kernel result differs from the generic run", seed)
		}
		if !bytes.Equal(refObs, out) {
			t.Errorf("seed %d: fast kernel obs export differs from the generic run", seed)
		}
		if t.Failed() {
			t.Fatalf("seed %d: kernel/reference divergence; stopping at first failing seed", seed)
		}
	}
}
