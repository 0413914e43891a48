// Package experiments regenerates every table and figure of the paper's
// evaluation (Section III and Section VI). Each generator runs real
// evolution through the real environments, replays the resulting traces
// through the hardware models, prices the same work on the CPU/GPU
// baseline models, and emits the rows/series the paper plots.
//
// Absolute values are model outputs, not silicon measurements; the
// claims being reproduced are the shapes — who wins, by roughly what
// factor, and where the crossovers fall. EXPERIMENTS.md records the
// paper-vs-measured comparison for every experiment.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/env"
	"repro/internal/evolve"
	"repro/internal/gene"
	"repro/internal/platform"
	"repro/internal/trace"
)

// Options tune experiment fidelity. Zero values select the defaults.
type Options struct {
	// Seed is the base RNG seed; runs r of a workload use Seed+r.
	Seed uint64
	// Runs per workload for the distribution/variance figures.
	Runs int
	// MaxGenerations bounds each evolution run.
	MaxGenerations int
	// Population overrides the NEAT population (paper: 150). The
	// default trades fidelity for tractable CI runs; pass 150 for
	// paper-scale characterization.
	Population int
	// RAMPopulation is the population for the 128-input RAM workloads
	// (heavier per genome).
	RAMPopulation int
	// RAMGenerations bounds RAM-workload runs separately.
	RAMGenerations int
	// Parallelism caps the harness's concurrency: generators in flight
	// under RunAll, design points in flight inside a sweep figure, and
	// study runs in flight. 0 means runtime.NumCPU(). 1 is the fully
	// serial harness; outputs are byte-identical at every setting
	// (pinned by TestParallelSerialIdentical).
	Parallelism int
	// BatchWidth caps the lane count of the tensorized batch evaluation
	// engine inside each run (0 = engine default). Execution shape
	// only: results are byte-identical at every width (the batch engine
	// is pinned to the scalar reference by the evolve differential
	// tests), so it is deliberately NOT part of the run-cache key.
	BatchWidth int
	// Ctx, when set, cancels in-flight evolution runs (e.g. on SIGINT);
	// nil means context.Background().
	Ctx context.Context
}

// ctx returns the effective cancellation context.
func (o Options) ctx() context.Context { return orBackground(o.Ctx) }

// orBackground is ctx, or context.Background() when ctx is nil.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.MaxGenerations == 0 {
		o.MaxGenerations = 30
	}
	if o.Population == 0 {
		o.Population = 64
	}
	if o.RAMPopulation == 0 {
		o.RAMPopulation = 32
	}
	if o.RAMGenerations == 0 {
		o.RAMGenerations = 6
	}
	return o
}

// Table is one rendered block of an experiment's output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Raw is pre-rendered text (e.g. an ASCII chart) printed after the
	// rows.
	Raw string
}

// Result is a regenerated experiment: human-readable tables plus the
// raw named series tests assert against.
type Result struct {
	ID     string
	Title  string
	Tables []Table
	Series map[string][]float64
}

// series stores a named raw series.
func (r *Result) series(name string, xs ...float64) {
	if r.Series == nil {
		r.Series = map[string][]float64{}
	}
	r.Series[name] = append(r.Series[name], xs...)
}

// Render writes the result in the fixed-width text form the CLI prints.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if t.Title != "" {
			fmt.Fprintf(w, "\n-- %s --\n", t.Title)
		}
		widths := make([]int, len(t.Header))
		for i, h := range t.Header {
			widths[i] = len(h)
		}
		for _, row := range t.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			parts := make([]string, len(cells))
			for i, c := range cells {
				if i < len(widths) {
					parts[i] = fmt.Sprintf("%-*s", widths[i], c)
				} else {
					parts[i] = c
				}
			}
			fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		}
		line(t.Header)
		for _, row := range t.Rows {
			line(row)
		}
		if t.Raw != "" {
			fmt.Fprint(w, t.Raw)
		}
		for _, n := range t.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// Generator regenerates one experiment.
type Generator func(Options) (*Result, error)

// registry maps experiment ids to generators; populated by init
// functions in the per-area files.
var registry = map[string]Generator{}

func register(id string, g Generator) { registry[id] = g }

// IDs lists the registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Has reports whether an experiment id is registered.
func Has(id string) bool {
	_, ok := registry[id]
	return ok
}

// Run regenerates the named experiment.
func Run(id string, opt Options) (*Result, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return g(opt.withDefaults())
}

// --- shared run helpers ---

// isRAM reports whether the workload is one of the 128-byte RAM titles.
func isRAM(workload string) bool { return strings.HasSuffix(workload, "-ram") }

// popFor picks the population size for a workload.
func (o Options) popFor(workload string) int {
	if isRAM(workload) {
		return o.RAMPopulation
	}
	return o.Population
}

// gensFor picks the generation budget for a workload.
func (o Options) gensFor(workload string) int {
	if isRAM(workload) {
		return o.RAMGenerations
	}
	return o.MaxGenerations
}

// evolved is one completed evolution run with its trace.
type evolved struct {
	runner *evolve.Runner
	trace  *trace.Trace
	solved bool
	// resumed marks a run that restored a checkpoint: its History
	// covers only the post-restore generations, so it is never
	// committed to the store (replaying it would not be byte-identical).
	resumed bool
}

// runRequest is the shared-cache request for one (workload, options,
// run) figure input. The run seed is the base seed plus the run offset,
// so the key spaces of different base seeds or run indices never
// collide.
func runRequest(workload string, opt Options, run int) Request {
	return Request{RunSpec: evolve.RunSpec{
		Workload:    workload,
		Population:  opt.popFor(workload),
		Generations: opt.gensFor(workload),
		Seed:        opt.Seed + uint64(run)*7919,
		BatchWidth:  opt.BatchWidth,
	}, Ctx: opt.Ctx}
}

// runWorkload returns the workload's evolved run through Resolve,
// evolving it on the first request of its key. The returned run is
// shared: callers read its history, population, and trace but must not
// mutate them (re-scoring goes through evolve.Runner.ScoreGenome).
func runWorkload(workload string, opt Options, run int) (*evolved, error) {
	out, err := Resolve(runRequest(workload, opt, run))
	if err != nil {
		return nil, err
	}
	return out.scalar, nil
}

// genWorkload extracts the platform charge model's view of one
// generation from a run.
func genWorkload(e *evolved, st evolve.GenStats) (platform.GenWorkload, error) {
	probe, err := env.New(e.runner.Workload.EnvName)
	if err != nil {
		return platform.GenWorkload{}, err
	}
	w := platform.GenWorkload{
		Population:    len(e.runner.Pop.Genomes),
		GeneOps:       st.CrossoverOps + st.MutationOps,
		TotalGenes:    st.TotalGenes,
		EnvSteps:      st.EnvSteps,
		MaxSteps:      probe.MaxSteps(),
		InferenceMACs: st.InferenceMACs,
		VertexUpdates: st.VertexUpdates,
		ObsSize:       probe.ObservationSize(),
		ActSize:       probe.ActionSize(),
	}
	var sumNodes, maxNodes int
	var maxID int32
	for _, g := range e.runner.Pop.Genomes {
		n := len(g.Nodes)
		sumNodes += n
		if n > maxNodes {
			maxNodes = n
		}
		if id := g.MaxNodeIDIn(); id > maxID {
			maxID = id
		}
	}
	if p := w.Population; p > 0 {
		w.MeanNodes = sumNodes / p
	}
	w.MaxNodes = maxNodes
	w.MaxNodeID = int(maxID) + 1
	return w, nil
}

// maxNodeIDOf returns the population's largest node id plus one.
func maxNodeIDOf(genomes []*gene.Genome) int {
	var maxID int32
	for _, g := range genomes {
		if id := g.MaxNodeIDIn(); id > maxID {
			maxID = id
		}
	}
	return int(maxID) + 1
}

// fnum formats a float compactly for table cells.
func fnum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6 || v < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// inum formats an integer cell.
func inum[T int | int64](v T) string { return fmt.Sprintf("%d", v) }
