package experiment

// Runner regenerates one or more paper artifacts.
type Runner func(Options) ([]*Table, error)

// Entry describes one registered experiment.
type Entry struct {
	// Name is the CLI identifier ("fig4", "tableI", ...).
	Name string
	// Artifacts lists the paper figures/tables the runner regenerates.
	Artifacts string
	// PaperScale describes the full-scale workload for documentation.
	PaperScale string
	// Run executes the experiment.
	Run Runner
}

// wrap lifts a single-table runner into a Runner.
func wrap(f func(Options) (*Table, error)) Runner {
	return func(o Options) ([]*Table, error) {
		t, err := f(o)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// Registry enumerates every experiment in paper order.
func Registry() []Entry {
	return []Entry{
		{
			Name:       "fig2",
			Artifacts:  "Fig. 2",
			PaperScale: "100 LoRaWAN nodes, 5 years",
			Run:        wrap(Fig2),
		},
		{
			Name:       "fig3",
			Artifacts:  "Fig. 3",
			PaperScale: "100 H-50 nodes, 90 days, final-week probe",
			Run:        wrap(Fig3),
		},
		{
			Name:       "sweep",
			Artifacts:  "Fig. 4, Fig. 5, Fig. 6",
			PaperScale: "500 nodes x {LoRaWAN, H-5, H-50, H-100}, 5 years",
			Run:        ThetaSweep,
		},
		{
			Name:       "lifespan",
			Artifacts:  "Fig. 7, Fig. 8",
			PaperScale: "100 nodes x {LoRaWAN, H-50, H-50C}, run to EoL (~8-14 years)",
			Run:        Lifespan,
		},
		{
			Name:       "fig9",
			Artifacts:  "Fig. 9",
			PaperScale: "10 lab-layout nodes within 50 m, 24 hours, SF10, 1 channel",
			Run:        wrap(Fig9),
		},
		{
			Name:       "tableI",
			Artifacts:  "Table I",
			PaperScale: "decision-path microbenchmarks",
			Run:        wrap(TableI),
		},
		{
			Name:       "optgap",
			Artifacts:  "Sec. III-A (heuristic vs clairvoyant optimum)",
			PaperScale: "3 nodes, 12 TDMA slots, exhaustive",
			Run:        wrap(OptimalGap),
		},
		{
			Name:       "abl-forecast",
			Artifacts:  "ablation (forecast quality)",
			PaperScale: "200 H-50 nodes, 120 days, 4 forecasters",
			Run:        wrap(ForecastAblation),
		},
		{
			Name:       "abl-weightb",
			Artifacts:  "ablation (w_b trade-off, Fig. 6c discussion)",
			PaperScale: "200 H-50 nodes, 120 days, 4 weights",
			Run:        wrap(WeightBAblation),
		},
		{
			Name:       "abl-retxhist",
			Artifacts:  "ablation (Eq. 14 history)",
			PaperScale: "200 H-50 nodes, 120 days, on/off",
			Run:        wrap(RetxHistoryAblation),
		},
		{
			Name:       "abl-supercap",
			Artifacts:  "extension (Sec. V future work: hybrid storage)",
			PaperScale: "200 nodes, 120 days, 3 storage configs x 2 protocols",
			Run:        wrap(SupercapAblation),
		},
		{
			Name:       "abl-gateways",
			Artifacts:  "extension (multi-gateway deployments)",
			PaperScale: "200 nodes, 120 days, {1,2,4} gateways x 2 protocols",
			Run:        wrap(GatewayAblation),
		},
		{
			Name:       "abl-startspread",
			Artifacts:  "ablation (deployment synchronization)",
			PaperScale: "200 nodes, 120 days, 3 spreads x 2 protocols",
			Run:        wrap(StartSpreadAblation),
		},
		{
			Name:       "scale",
			Artifacts:  "harness (single-run large-N scaling ladder)",
			PaperScale: "125/250/500/1000 nodes, 2 days, BLA H-50",
			Run:        Scale,
		},
		{
			Name:       "faults",
			Artifacts:  "robustness (min lifespan vs control-plane reliability)",
			PaperScale: "200 H-50 nodes, 120 days, 3 loss rates x 3 outage lengths",
			Run:        wrap(FaultsSweep),
		},
	}
}

// Find returns the entry with the given name.
func Find(name string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}
