package evolve

import (
	"fmt"
	"io"

	"repro/internal/hw/hwsim"
	"repro/internal/neat"
)

// RunSpec describes one evolution run of any kind: a population, a
// budget and a seed. Islands and Objectives only change how the run is
// split and ranked — a scalar run sets neither, an island run
// (island.go) sets Islands and MigrationEvery, a Pareto run
// (pareto.go) sets Objectives. The identity fields are the run; the
// execution-shape fields change how fast it runs, never what it
// produces.
//
// The field order and the untagged names are the island RPC's wire
// form (the /island/open spec), so keep both.
type RunSpec struct {
	Workload    string
	Population  int
	Generations int
	// Islands, when > 0, splits Population evenly into that many
	// sub-populations that evolve in isolation and, every
	// MigrationEvery generations, each import their ring-predecessor's
	// champion.
	Islands        int
	MigrationEvery int
	Seed           uint64
	// Objectives, when set, ranks every generation with NSGA-II over
	// this objective vector (order included — see ResolveObjectives).
	Objectives []string `json:",omitempty"`

	// Parallelism caps each runner's evaluation pool (0 = GOMAXPROCS)
	// and BatchWidth its batch-engine lane count (0 = engine default).
	Parallelism int
	BatchWidth  int
	// Phases, when set, receives every runner's per-phase wall-clock
	// counters (see Runner.Phases) — live metrics only.
	Phases *hwsim.Counters `json:"-"`
	// Sink, when set, receives a scalar or Pareto run's per-generation
	// records live. Island runners never stream: their records replay
	// in segment order after the run (ReplayIslandRecords).
	Sink hwsim.Sink `json:"-"`
}

// Upper bounds on a run's size. A spec arrives from untrusted clients
// (POST /jobs, /island/open), and these keep one request from making a
// process allocate an arbitrarily large population. They sit far above
// every size the figures, CLIs, tests and benchmark use (at most
// population 150 and 100 generations).
const (
	MaxPopulation  = 4096
	MaxGenerations = 10000
	MaxIslands     = 256
)

// Validate reports spec errors before any population is built.
func (s RunSpec) Validate() error {
	if _, err := WorkloadByName(s.Workload); err != nil {
		return err
	}
	switch {
	case s.Population < 2 || s.Population > MaxPopulation:
		return fmt.Errorf("population %d: need 2 to %d", s.Population, MaxPopulation)
	case s.Generations < 1 || s.Generations > MaxGenerations:
		return fmt.Errorf("generations %d: need 1 to %d", s.Generations, MaxGenerations)
	case s.Islands < 0:
		return fmt.Errorf("islands %d: must not be negative", s.Islands)
	case s.Islands == 0 && s.MigrationEvery != 0:
		// The key string names island fields only for island runs, so a
		// stray migration period would make a run whose key does not
		// parse back to it.
		return fmt.Errorf("migration_every %d: needs islands", s.MigrationEvery)
	case s.Islands > 0 && len(s.Objectives) > 0:
		return fmt.Errorf("islands and objectives are mutually exclusive")
	case s.Islands == 1 || s.Islands > MaxIslands:
		return fmt.Errorf("island: islands %d: need 2 to %d", s.Islands, MaxIslands)
	case s.Islands > 0 && s.Population%s.Islands != 0:
		return fmt.Errorf("island: population %d not divisible by %d islands", s.Population, s.Islands)
	case s.Islands > 0 && s.MigrationEvery < 1:
		return fmt.Errorf("island: migrationEvery %d must be positive", s.MigrationEvery)
	}
	if len(s.Objectives) > 0 {
		if _, err := ResolveObjectives(s.Objectives); err != nil {
			return err
		}
	}
	return nil
}

// NewRunner builds the runner of a scalar or Pareto run of s. When pop
// is non-nil the runner adopts the population restored from it (a
// neat checkpoint, as Runner.SaveCheckpoint writes) instead of seeding
// a fresh one that the restore would discard.
func (s RunSpec) NewRunner(pop io.Reader) (*Runner, error) { return s.runner(s.Seed, pop) }

// runner builds the Runner evolving one population of s with the given
// seed: the run's own seed, or an island's IslandSeed. It is the one
// place a spec's knobs reach a Runner. An island's population is its
// even share and its runner tracks champions; a Pareto runner ranks by
// the objective vector.
func (s RunSpec) runner(seed uint64, pop io.Reader) (*Runner, error) {
	var r *Runner
	if pop == nil {
		cfg := neat.DefaultConfig(1, 1)
		cfg.PopulationSize = s.Population / max(s.Islands, 1)
		var err error
		if r, err = NewRunner(s.Workload, cfg, seed); err != nil {
			return nil, err
		}
	} else {
		w, err := WorkloadByName(s.Workload)
		if err != nil {
			return nil, err
		}
		p, err := neat.Restore(pop, seed)
		if err != nil {
			return nil, err
		}
		r = adopt(w, s.Workload, p, seed)
	}
	r.Parallelism, r.BatchWidth, r.Phases = s.Parallelism, s.BatchWidth, s.Phases
	if s.Islands == 0 {
		r.Sink = s.Sink
	}
	r.trackChampion = s.Islands > 0
	r.objectives = append([]string(nil), s.Objectives...)
	return r, nil
}
