package experiment

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/simtime"
)

// render concatenates the text form of a runner's tables.
func render(t *testing.T, run Runner, o Options) string {
	t.Helper()
	tables, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.Fprint(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestParallelDeterminism is the contract of the parallel runner: for
// every ported experiment, the same seed must produce byte-identical
// tables whatever the worker count. Each subtest compares fresh runs,
// serial (Workers=1) vs fan-out (Workers=2 and 8). The gateway ablation
// covers multi-gateway runs at 22 nodes over 3 days, the smallest size
// found at which a worker-count dependence shows in its table.
func TestParallelDeterminism(t *testing.T) {
	cases := []struct {
		name string
		run  Runner
		opts func() Options
	}{
		{name: "sweep", run: ThetaSweep, opts: tiny},
		{name: "fig2", run: wrap(Fig2), opts: tiny},
		{name: "fig3", run: wrap(Fig3), opts: func() Options {
			o := tiny()
			o.Duration = 9 * simtime.Day
			return o
		}},
		{name: "abl-gateways", run: wrap(GatewayAblation), opts: func() Options {
			o := tiny()
			o.Nodes = 22
			o.Duration = 3 * simtime.Day
			return o
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			serial := tc.opts()
			serial.Workers = 1
			want := render(t, tc.run, serial)
			for _, workers := range []int{2, 8} {
				parallel := tc.opts()
				parallel.Workers = workers
				if got := render(t, tc.run, parallel); got != want {
					t.Errorf("parallel output differs from serial:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", want, workers, got)
				}
			}
		})
	}
}

// TestReplicatesDeterministic: replicated fan-out must also be
// order-independent, and replicate 0 keeps the base seed so a
// replicated sweep still includes the default run's deployments.
func TestReplicatesDeterministic(t *testing.T) {
	mk := func(workers int) Options {
		o := tiny()
		o.Workers = workers
		o.Replicates = 3
		return o
	}
	want := render(t, ThetaSweep, mk(1))
	got := render(t, ThetaSweep, mk(8))
	if got != want {
		t.Errorf("replicated parallel output differs from serial:\n%s\nvs\n%s", want, got)
	}
	if !strings.Contains(want, "pooled over 3 replicates") {
		t.Errorf("replicated table missing pooling note:\n%s", want)
	}
}

// countingWriter counts writes; the race detector checks that the
// syncWriter wrapper serializes concurrent logf calls.
type countingWriter struct {
	mu sync.Mutex
	n  int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return len(p), nil
}

func TestParallelLogging(t *testing.T) {
	w := &countingWriter{}
	o := tiny()
	o.Workers = 8
	o.Log = w
	if _, err := ThetaSweep(o); err != nil {
		t.Fatal(err)
	}
	if w.n == 0 {
		t.Error("no progress lines reached the log writer")
	}
}

func TestSyncWriterWrapsOnce(t *testing.T) {
	o := Options{Log: io.Discard}
	p := o.parallel()
	sw, ok := p.Log.(*syncWriter)
	if !ok {
		t.Fatal("parallel() did not wrap the log writer")
	}
	if again := p.parallel(); again.Log != sw {
		t.Error("parallel() re-wrapped an already-synchronized writer")
	}
	if (Options{}).parallel().Log != nil {
		t.Error("parallel() invented a writer for a nil Log")
	}
}
