// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run sweep -nodes 200 -duration 4380h
//	experiments -run all -scale quick
//	experiments -run lifespan -scale paper        # full multi-year runs
//	experiments -run sweep -csv out/              # also write CSV files
//	experiments -run sweep -j 1                   # force serial execution
//	experiments -run sweep -replicates 5          # pool 5 derived-seed runs
//	experiments -run scale -cpuprofile cpu.pprof -memprofile mem.pprof
//	experiments -run scale -trace trace.out       # runtime execution trace
//
// Scales:
//
//	quick: minutes of wall time; smaller networks, shorter horizons and
//	       accelerated aging, so magnitudes are scaled. Not every shape
//	       holds: quick fig9 starts 100 nodes within seconds on one SF10
//	       channel for 90 days, a congestion-collapse regime in which all
//	       four of the paper's Fig. 9 comparisons flip sign.
//	paper: the paper's workloads (hours of wall time for the sweep).
//
// Within each experiment, independent simulation runs fan out across -j
// workers (default: all CPUs); output tables are byte-identical at any
// worker count. Experiments themselves run sequentially so that tableI's
// microbenchmarks are not skewed by concurrent simulations.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simtime"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		runNames = flag.String("run", "all", "comma-separated experiment names, or 'all'")
		scale    = flag.String("scale", "quick", "workload scale: 'quick' or 'paper'")
		seed     = flag.Uint64("seed", 1, "scenario seed")
		nodes    = flag.Int("nodes", 0, "override network size (0 = scale default)")
		duration = flag.Duration("duration", 0, "override simulated duration (0 = scale default)")
		aging    = flag.Float64("aging", 0, "override aging acceleration factor (0 = scale default)")
		csvDir   = flag.String("csv", "", "directory to also write per-table CSV files")
		workers  = flag.Int("j", 0, "worker pool size for fan-out within an experiment (0 = all CPUs, 1 = serial)")
		reps     = flag.Int("replicates", 0, "derived-seed replicates pooled per scenario (0 or 1 = single run)")
		verbose  = flag.Bool("v", false, "log per-run progress")

		obsOn     = flag.Bool("obs", false, "export per-run observability (counters, per-node timelines, manifest) under -obs-dir")
		obsDir    = flag.String("obs-dir", "obs", "observability export directory (with -obs)")
		obsSample = flag.Duration("obs-sample-every", 0, "observability timeline sampling period (0 = 10m default)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	if *list {
		fmt.Println("available experiments:")
		for _, e := range experiment.Registry() {
			fmt.Printf("  %-16s %-45s paper scale: %s\n", e.Name, e.Artifacts, e.PaperScale)
		}
		return nil
	}

	opts := experiment.Options{Seed: *seed}
	switch *scale {
	case "paper":
		// Paper-scale defaults are baked into each runner.
	case "quick":
		opts.Nodes = 100
		opts.Duration = simtime.FromDuration(90 * 24 * time.Hour)
		opts.AgingFactor = 40
	default:
		return fmt.Errorf("unknown scale %q (want quick or paper)", *scale)
	}
	if *nodes > 0 {
		opts.Nodes = *nodes
	}
	if *duration > 0 {
		opts.Duration = simtime.FromDuration(*duration)
	}
	if *aging > 0 {
		opts.AgingFactor = *aging
	}
	opts.Workers = *workers
	opts.Replicates = *reps
	if *verbose {
		opts.Log = os.Stderr
	}
	if *obsOn {
		opts.ObsDir = *obsDir
		opts.ObsSampleEvery = simtime.FromDuration(*obsSample)
	}

	var entries []experiment.Entry
	if *runNames == "all" {
		entries = experiment.Registry()
	} else {
		for _, name := range strings.Split(*runNames, ",") {
			e, ok := experiment.Find(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", name)
			}
			entries = append(entries, e)
		}
	}

	for _, e := range entries {
		started := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		for _, t := range tables {
			if opts.Nodes > 0 || opts.Duration > 0 || opts.AgingFactor > 1 {
				t.AddNote("scaled run (scale=%s); use -scale paper for the full workload: %s", *scale, e.PaperScale)
			}
			if err := t.Fprint(os.Stdout); err != nil {
				return err
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					return err
				}
			}
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "%s finished in %v\n", e.Name, time.Since(started).Round(time.Millisecond))
		}
	}
	if *obsOn {
		if err := writeObsManifest(*obsDir, opts, entries); err != nil {
			return fmt.Errorf("obs manifest: %w", err)
		}
	}
	return nil
}

// writeObsManifest records this invocation's provenance — including the
// resolved worker count, which deliberately lives here and not in the
// per-run JSONL so run files stay byte-identical across -j values.
func writeObsManifest(dir string, opts experiment.Options, entries []experiment.Entry) error {
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name)
	}
	var runs []string
	if paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl")); err == nil {
		for _, p := range paths {
			runs = append(runs, filepath.Base(p))
		}
	}
	sampleEvery := opts.ObsSampleEvery
	if sampleEvery <= 0 {
		sampleEvery = obs.DefaultSampleEvery
	}
	return obs.WriteInvocationManifest(filepath.Join(dir, "manifest.json"), obs.InvocationManifest{
		Seed:          opts.Seed,
		Workers:       runner.Workers(opts.Workers),
		SampleEveryMs: int64(sampleEvery / simtime.Millisecond),
		Experiments:   names,
		Runs:          runs,
	})
}

func writeCSV(dir string, t *experiment.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.CSV(f); err != nil {
		return err
	}
	return f.Close()
}
