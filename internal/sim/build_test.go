package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// TestNewIdenticalAcrossProcs builds and runs the same scenarios at
// GOMAXPROCS 3, 2 and 1, so New's node construction runs on that many
// workers: results and obs exports must be identical. The 3-worker run
// goes first, so concurrent builders also meet a trace none of whose
// days were synthesized yet. One scenario has brownouts (and the rest
// of a lossy control plane); one has a supercapacitor, so the generic
// integrator runs.
func TestNewIdenticalAcrossProcs(t *testing.T) {
	base := config.Default().WithSeed(2811)
	base.Nodes = 300
	base.Duration = 2 * simtime.Day

	brownouts := base
	brownouts.Faults = faults.Config{
		DownlinkLoss: 0.1,
		UplinkLoss:   0.05,
		BrownoutMTBF: simtime.Day,
	}
	supercap := base.WithSeed(2812)
	supercap.SupercapJ = 3
	supercap.SupercapLeakW = 1e-5

	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for name, cfg := range map[string]config.Scenario{"brownouts": brownouts, "supercap": supercap} {
		var wantRes *Result
		var wantObs []byte
		for _, procs := range []int{3, 2, 1} {
			runtime.GOMAXPROCS(procs)
			rec := obs.New(obs.Manifest{Tool: "test"}, 6*simtime.Hour)
			res := mustRun(t, cfg, Hooks{Obs: rec})
			var export bytes.Buffer
			if err := rec.WriteJSONL(&export); err != nil {
				t.Fatal(err)
			}
			if wantRes == nil {
				wantRes, wantObs = res, export.Bytes()
				continue
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Errorf("%s: result at GOMAXPROCS %d differs from GOMAXPROCS 3", name, procs)
			}
			if !bytes.Equal(export.Bytes(), wantObs) {
				t.Errorf("%s: obs export at GOMAXPROCS %d differs from GOMAXPROCS 3", name, procs)
			}
		}
		var brown int64
		for _, n := range wantRes.Nodes {
			brown += n.Stats.Brownouts
		}
		if name == "brownouts" && brown == 0 {
			t.Errorf("%s: no brownout happened, so the scenario checks nothing it is named for", name)
		}
	}
}
