package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// updateGolden regenerates testdata goldens: go test -run NoDrift -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestObsDisabledNoDrift pins the observer-off behaviour of the
// simulation pipeline: with no recorder attached, the rendered tables of
// the deterministic simulator experiments must stay byte-identical to
// the committed pre-change baseline. Any drift here means a "zero
// overhead when disabled" promise was broken by a behavioural change.
func TestObsDisabledNoDrift(t *testing.T) {
	cases := []struct {
		name string
		run  Runner
	}{
		{name: "sweep", run: ThetaSweep},
		{name: "faults", run: wrap(FaultsSweep)},
		{name: "fig2", run: wrap(Fig2)},
		{name: "fig9", run: wrap(Fig9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tables, err := tc.run(tiny())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, tbl := range tables {
				if err := tbl.Fprint(&buf); err != nil {
					t.Fatal(err)
				}
			}
			golden := filepath.Join("testdata", "nodrift_"+tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s tables drifted from the obs-off baseline:\n--- want ---\n%s\n--- got ---\n%s",
					tc.name, want, buf.Bytes())
			}
		})
	}
}

// readObsDir loads every exported observability file under dir, keyed by
// file name.
func readObsDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestObsExportDeterministic is the observability determinism contract:
// the exported files of an experiment run must be byte-identical across
// repeated runs and across worker counts. The faults sweep exercises
// every recording surface — medium and netserver counters, fault events,
// stale-w_u fallbacks, and timeline sampling.
func TestObsExportDeterministic(t *testing.T) {
	runOnce := func(workers int) map[string][]byte {
		dir := t.TempDir()
		o := tiny()
		o.Workers = workers
		o.ObsDir = dir
		if _, err := FaultsSweep(o); err != nil {
			t.Fatal(err)
		}
		files := readObsDir(t, dir)
		if len(files) == 0 {
			t.Fatal("faults sweep exported no observability files")
		}
		return files
	}

	base := runOnce(1)
	for name, files := range map[string]map[string][]byte{
		"repeat/j1": runOnce(1),
		"j8":        runOnce(8),
	} {
		if len(files) != len(base) {
			t.Errorf("%s exported %d files, baseline %d", name, len(files), len(base))
		}
		for f, want := range base {
			got, ok := files[f]
			if !ok {
				t.Errorf("%s: missing export %s", name, f)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: export %s differs from the workers=1 baseline", name, f)
			}
		}
	}

	// The per-run manifests must carry provenance but never the worker
	// count (that lives in the CLI's per-invocation manifest.json).
	names := make([]string, 0, len(base))
	for f := range base {
		names = append(names, f)
	}
	sort.Strings(names)
	var sawJSONL bool
	for _, f := range names {
		if !strings.HasSuffix(f, ".jsonl") {
			continue
		}
		sawJSONL = true
		first, _, _ := strings.Cut(string(base[f]), "\n")
		for _, want := range []string{`"t":"manifest"`, `"config_hash"`, `"seed"`} {
			if !strings.Contains(first, want) {
				t.Errorf("%s manifest line missing %s: %s", f, want, first)
			}
		}
		if strings.Contains(first, "workers") {
			t.Errorf("%s manifest line must not embed the worker count: %s", f, first)
		}
	}
	if !sawJSONL {
		t.Error("no JSONL exports found")
	}
}
