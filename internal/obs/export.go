package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

// JSONL record shapes. Every line is one JSON object whose "t" field
// names the record type; field order is fixed by these structs and
// encoding/json, so identical recorder state always serializes to
// identical bytes.
type (
	jsonManifest struct {
		T             string `json:"t"`
		Schema        int    `json:"schema"`
		Tool          string `json:"tool"`
		Version       string `json:"version"`
		Experiment    string `json:"experiment,omitempty"`
		Label         string `json:"label,omitempty"`
		Seed          uint64 `json:"seed"`
		ConfigHash    string `json:"config_hash,omitempty"`
		Replicate     int    `json:"replicate"`
		Nodes         int    `json:"nodes"`
		SampleEveryMs int64  `json:"sample_every_ms"`
	}
	jsonCounter struct {
		T    string `json:"t"`
		Name string `json:"name"`
		V    int64  `json:"v"`
	}
	jsonGauge struct {
		T    string  `json:"t"`
		Name string  `json:"name"`
		V    float64 `json:"v"`
	}
	jsonSample struct {
		T        string  `json:"t"`
		Node     int     `json:"node"`
		AtMs     int64   `json:"at_ms"`
		SoC      float64 `json:"soc"`
		DegCal   float64 `json:"deg_cal"`
		DegCyc   float64 `json:"deg_cyc"`
		DegTotal float64 `json:"deg_total"`
		DIF      float64 `json:"dif"`
		Window   int     `json:"window"`
		Queue    int     `json:"queue"`
		Retx     int64   `json:"retx"`
		StaleWu  int64   `json:"stale_wu"`
	}
	jsonEvent struct {
		T    string `json:"t"`
		Node int    `json:"node"`
		AtMs int64  `json:"at_ms"`
		Kind string `json:"kind"`
	}
)

// sortedCounterNames snapshots the registry keys in name order; map
// iteration order must never reach an exporter.
func (r *Recorder) sortedCounterNames() (counters, gauges []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.counters {
		counters = append(counters, name)
	}
	for name := range r.gauges {
		gauges = append(gauges, name)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	return counters, gauges
}

// WriteJSONL exports the run as JSON lines: the manifest first, then
// counters and gauges in name order, then every node's samples and
// finally every node's events, both in ascending node-ID order with
// per-node rows in time order. Nothing in the output depends on map
// iteration order, goroutine scheduling, or wall-clock time.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline per record
	if err := enc.Encode(jsonManifest{
		T:             "manifest",
		Schema:        SchemaVersion,
		Tool:          r.manifest.Tool,
		Version:       r.manifest.Version,
		Experiment:    r.manifest.Experiment,
		Label:         r.manifest.Label,
		Seed:          r.manifest.Seed,
		ConfigHash:    r.manifest.ConfigHash,
		Replicate:     r.manifest.Replicate,
		Nodes:         r.manifest.Nodes,
		SampleEveryMs: int64(r.sampleEvery / simtime.Millisecond),
	}); err != nil {
		return err
	}
	counterNames, gaugeNames := r.sortedCounterNames()
	for _, name := range counterNames {
		if err := enc.Encode(jsonCounter{T: "counter", Name: name, V: r.Counter(name).Value()}); err != nil {
			return err
		}
	}
	for _, name := range gaugeNames {
		if err := enc.Encode(jsonGauge{T: "gauge", Name: name, V: r.Gauge(name).Value()}); err != nil {
			return err
		}
	}
	for id := 0; id < r.NumNodes(); id++ {
		tl := r.Node(id)
		for _, s := range tl.Samples() {
			if err := enc.Encode(jsonSample{
				T: "sample", Node: id, AtMs: int64(s.At),
				SoC: s.SoC, DegCal: s.DegCal, DegCyc: s.DegCyc, DegTotal: s.DegTotal,
				DIF: s.DIF, Window: s.Window, Queue: s.Queue,
				Retx: s.Retx, StaleWu: s.StaleWu,
			}); err != nil {
				return err
			}
		}
	}
	for id := 0; id < r.NumNodes(); id++ {
		tl := r.Node(id)
		for _, e := range tl.Events() {
			if err := enc.Encode(jsonEvent{T: "event", Node: id, AtMs: int64(e.At), Kind: e.Kind}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// fmtF renders a float with the shortest round-trip representation, the
// same deterministic formatting encoding/json uses.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteTimelineCSV exports every node's samples as CSV, nodes in ID
// order.
func (r *Recorder) WriteTimelineCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "node,at_ms,soc,deg_cal,deg_cyc,deg_total,dif,window,queue,retx,stale_wu"); err != nil {
		return err
	}
	for id := 0; id < r.NumNodes(); id++ {
		for _, s := range r.Node(id).Samples() {
			if _, err := fmt.Fprintf(bw, "%d,%d,%s,%s,%s,%s,%s,%d,%d,%d,%d\n",
				id, int64(s.At), fmtF(s.SoC), fmtF(s.DegCal), fmtF(s.DegCyc),
				fmtF(s.DegTotal), fmtF(s.DIF), s.Window, s.Queue, s.Retx, s.StaleWu); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteCountersCSV exports counters and gauges in name order.
func (r *Recorder) WriteCountersCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "kind,name,value"); err != nil {
		return err
	}
	counterNames, gaugeNames := r.sortedCounterNames()
	for _, name := range counterNames {
		if _, err := fmt.Fprintf(bw, "counter,%s,%d\n", name, r.Counter(name).Value()); err != nil {
			return err
		}
	}
	for _, name := range gaugeNames {
		if _, err := fmt.Fprintf(bw, "gauge,%s,%s\n", name, fmtF(r.Gauge(name).Value())); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// summaryReservoirCap bounds the per-node SoC sample set used for the
// summary median; below it the quantile is exact, beyond it the
// reservoir subsamples deterministically (fixed seed).
const summaryReservoirCap = 4096

// WriteSummaryCSV exports one row per node summarizing its timeline.
// Nodes without samples emit empty statistic cells — the ok-accessors
// distinguish "no samples" from a genuine zero.
func (r *Recorder) WriteSummaryCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "node,samples,events,soc_min,soc_max,soc_mean,soc_p50,deg_total_last,retx,stale_wu"); err != nil {
		return err
	}
	okF := func(v float64, ok bool) string {
		if !ok {
			return ""
		}
		return fmtF(v)
	}
	for id := 0; id < r.NumNodes(); id++ {
		tl := r.Node(id)
		samples := tl.Samples()
		var soc metrics.Welford
		res := metrics.NewReservoir(summaryReservoirCap, 1)
		for _, s := range samples {
			soc.Add(s.SoC)
			res.Add(s.SoC)
		}
		var degLast string
		var retx, stale int64
		if n := len(samples); n > 0 {
			last := samples[n-1]
			degLast = fmtF(last.DegTotal)
			retx, stale = last.Retx, last.StaleWu
		}
		minS, minOK := soc.MinOK()
		maxS, maxOK := soc.MaxOK()
		meanS, meanOK := soc.MeanOK()
		p50, p50OK := res.QuantileOK(0.5)
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%s,%s,%s,%s,%s,%d,%d\n",
			id, len(samples), len(tl.Events()),
			okF(minS, minOK), okF(maxS, maxOK), okF(meanS, meanOK), okF(p50, p50OK),
			degLast, retx, stale); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ExportFiles writes the run's full export set under dir:
// <base>.jsonl plus <base>_timeline.csv, <base>_counters.csv and
// <base>_summary.csv. The directory is created as needed.
func (r *Recorder) ExportFiles(dir, base string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(base+".jsonl", r.WriteJSONL); err != nil {
		return err
	}
	if err := write(base+"_timeline.csv", r.WriteTimelineCSV); err != nil {
		return err
	}
	if err := write(base+"_counters.csv", r.WriteCountersCSV); err != nil {
		return err
	}
	return write(base+"_summary.csv", r.WriteSummaryCSV)
}

// InvocationManifest is the per-invocation provenance written by CLIs as
// manifest.json next to the exported runs. The worker count lives here,
// not in the per-run JSONL, so the run files stay byte-identical across
// -j values; determinism checks diff the run files and skip this one.
type InvocationManifest struct {
	Tool          string   `json:"tool"`
	Version       string   `json:"version"`
	Schema        int      `json:"schema"`
	Seed          uint64   `json:"seed"`
	Workers       int      `json:"workers"`
	SampleEveryMs int64    `json:"sample_every_ms"`
	Experiments   []string `json:"experiments,omitempty"`
	Runs          []string `json:"runs,omitempty"`
}

// WriteInvocationManifest writes m as indented JSON at path, filling
// empty tool/version/schema fields and sorting Runs for stable output.
func WriteInvocationManifest(path string, m InvocationManifest) error {
	if m.Tool == "" {
		m.Tool = "repro"
	}
	if m.Version == "" {
		m.Version = ToolVersion
	}
	if m.Schema == 0 {
		m.Schema = SchemaVersion
	}
	sort.Strings(m.Runs)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
