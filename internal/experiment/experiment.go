// Package experiment regenerates every table and figure of the paper's
// evaluation (Sec. IV): one runner per figure, each emitting the same
// rows/series the paper plots, plus the ablations called out in
// DESIGN.md. Runners accept scaled-down parameters so the full set can
// double as benchmark workloads; paper-scale defaults apply when fields
// are zero.
package experiment

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/simtime"
)

// Options scales and seeds an experiment run.
type Options struct {
	// Seed drives the scenario; 0 means 1.
	Seed uint64
	// Nodes overrides the experiment's paper-default network size.
	Nodes int
	// Duration overrides the experiment's paper-default simulated time.
	Duration simtime.Duration
	// AgingFactor >= 1 accelerates calendar aging for run-to-EoL
	// experiments (Fig. 7/8) so scaled runs finish quickly; reported
	// lifespans are de-scaled and the table notes the factor. 0 or 1
	// means real aging.
	AgingFactor float64
	// Workers caps the worker pool that fans out independent simulation
	// runs; 0 (or negative) uses every CPU, 1 forces serial execution.
	// Output tables are byte-identical at any worker count.
	Workers int
	// Replicates repeats every scenario with deterministically derived
	// seeds and pools the results. 0 or 1 means a single run; replicate
	// 0 always keeps the base seed, so the default output matches a
	// pre-replication run exactly.
	Replicates int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// ObsDir, when non-empty, enables per-run observability: every
	// simulation run exports its counters, per-node timelines, and run
	// manifest under this directory (see internal/obs). The exported
	// files are byte-identical across repeated runs and worker counts.
	ObsDir string
	// ObsSampleEvery is the timeline sampling period; 0 uses
	// obs.DefaultSampleEvery.
	ObsSampleEvery simtime.Duration
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) nodes(paperDefault int) int {
	if o.Nodes > 0 {
		return o.Nodes
	}
	return paperDefault
}

func (o Options) duration(paperDefault simtime.Duration) simtime.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	return paperDefault
}

func (o Options) aging() float64 {
	if o.AgingFactor > 1 {
		return o.AgingFactor
	}
	return 1
}

func (o Options) replicates() int {
	if o.Replicates > 1 {
		return o.Replicates
	}
	return 1
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Table is one figure's or table's regenerated data.
type Table struct {
	// ID matches the paper artifact ("fig4", "tableI", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows hold formatted cells, one slice per row.
	Rows [][]string
	// Notes record scaling factors and substitutions that apply to this
	// regeneration.
	Notes []string
}

// AddRow appends a row; extra/missing cells relative to Columns are
// preserved as-is.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends an explanatory note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(cell)
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", pad))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := printRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := printRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV renders the table as comma-separated values (cells containing
// commas or quotes are quoted).
func (t *Table) CSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(quoted, ","))
		return err
	}
	if err := writeLine(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}
