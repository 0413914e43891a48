package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evolve"
	"repro/internal/experiments"
	"repro/internal/store"
)

// State is a job's lifecycle position. The transitions are:
//
//	queued ──▶ running ──▶ done
//	   │          ├──────▶ failed
//	   └──────────┴──────▶ cancelled
//
// Terminal states (done, failed, cancelled) never transition again.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is one evolution job request — the JSON body of POST /jobs.
// (Workload, Population, Generations, Seed) is also the shared run
// cache key: two admitted jobs with equal tuples execute one
// evolution.
type Spec struct {
	Workload    string `json:"workload"`
	Population  int    `json:"population,omitempty"`
	Generations int    `json:"generations,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	// Islands, when > 0, makes this an island-model job: the population
	// splits into Islands sub-populations that evolve independently and
	// exchange champions every MigrationEvery generations. Both fields
	// join the cache key — an island run is a different computation
	// than a panmictic run of the same tuple.
	Islands        int `json:"islands,omitempty"`
	MigrationEvery int `json:"migration_every,omitempty"`
	// Objectives, when non-empty, makes this a Pareto (multi-objective)
	// job: the population evolves under NSGA-II selection over the named
	// objective vector and the job's stream and result carry the Pareto
	// front. The canonical '+'-joined form ("fitness+genes+energy") is
	// used on the wire and in the cache key — the vector, order
	// included, is part of the run's identity. Mutually exclusive with
	// Islands.
	Objectives string `json:"objectives,omitempty"`
	// Client identifies the submitter for the per-client in-flight
	// cap; empty falls back to the transport identity (header, then
	// remote address).
	Client string `json:"client,omitempty"`
}

// withDefaults fills unset fields with the daemon's defaults.
func (sp Spec) withDefaults() Spec {
	if sp.Population <= 0 {
		sp.Population = 64
	}
	if sp.Generations <= 0 {
		sp.Generations = 30
	}
	if sp.Seed == 0 {
		sp.Seed = 42
	}
	if sp.Islands > 0 && sp.MigrationEvery <= 0 {
		sp.MigrationEvery = 5
	}
	return sp
}

// IsIsland reports whether the spec requests an island-model run.
func (sp Spec) IsIsland() bool { return sp.Islands > 0 }

// IsPareto reports whether the spec requests a Pareto-mode run.
func (sp Spec) IsPareto() bool { return sp.Objectives != "" }

// run maps the job spec onto the run it names. Admission validates it
// (Scheduler.Submit); the executor resolves it.
func (sp Spec) run() evolve.RunSpec {
	return evolve.RunSpec{
		Workload:       sp.Workload,
		Population:     sp.Population,
		Generations:    sp.Generations,
		Islands:        sp.Islands,
		MigrationEvery: sp.MigrationEvery,
		Seed:           sp.Seed,
		Objectives:     experiments.SplitObjectives(sp.Objectives),
	}
}

// storeKey is the spec's run identity — the store.Key the shared run
// tier and the persistent store address the run by.
func (sp Spec) storeKey() store.Key { return experiments.RunKey(sp.run()) }

// specOf is storeKey's inverse: the spec that resolves to run k.
func specOf(k store.Key) Spec {
	return Spec{
		Workload:       k.Workload,
		Population:     k.Population,
		Generations:    k.Generations,
		Seed:           k.Seed,
		Islands:        k.Islands,
		MigrationEvery: k.MigrationEvery,
		Objectives:     k.Objectives,
	}
}

// key is the run identity rendered as a stable string — used for
// checkpoint file names and cluster sharding, so an interrupted job's
// resubmission finds its checkpoint and the ring finds the same owner
// by construction.
func (sp Spec) key() string { return sp.storeKey().String() }

// Job is one submitted evolution with its lifecycle state and record
// stream. All mutable fields are guarded by mu; reads go through
// Status.
type Job struct {
	ID   string
	Spec Spec

	stream *stream
	// done closes when the job reaches a terminal state.
	done chan struct{}

	// runner is published by the compute hook while the job is live on
	// a cache miss; used for on-demand checkpoint requests.
	runner atomic.Pointer[evolve.Runner]

	mu        sync.Mutex
	state     State
	err       string
	solved    bool
	shared    bool // result came from the run cache, not a fresh execution
	resumed   bool // fresh execution restored a checkpoint
	stored    bool // cache miss was served from the persistent store
	best      float64
	gens      int
	cancel    context.CancelFunc
	created   time.Time
	started   time.Time
	finished  time.Time
	ckptAsked bool
}

// Status is the wire form of a job — what every jobs endpoint returns.
type Status struct {
	ID          string  `json:"id"`
	Spec        Spec    `json:"spec"`
	State       State   `json:"state"`
	Error       string  `json:"error,omitempty"`
	Solved      bool    `json:"solved,omitempty"`
	Shared      bool    `json:"shared,omitempty"`
	Resumed     bool    `json:"resumed,omitempty"`
	Stored      bool    `json:"stored,omitempty"`
	BestFitness float64 `json:"best_fitness,omitempty"`
	Generations int     `json:"generations"`
	CreatedMs   int64   `json:"created_unix_ms"`
	StartedMs   int64   `json:"started_unix_ms,omitempty"`
	FinishedMs  int64   `json:"finished_unix_ms,omitempty"`
}

// Status snapshots the job under its lock.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		Spec:        j.Spec,
		State:       j.state,
		Error:       j.err,
		Solved:      j.solved,
		Shared:      j.shared,
		Resumed:     j.resumed,
		Stored:      j.stored,
		BestFitness: j.best,
		Generations: j.gens,
		CreatedMs:   j.created.UnixMilli(),
	}
	if !j.started.IsZero() {
		st.StartedMs = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		st.FinishedMs = j.finished.UnixMilli()
	}
	return st
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// start moves queued → running, wiring the cancel func. It reports
// false when the job was cancelled while queued.
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish moves the job into a terminal state and closes the stream
// and done channel, reporting whether this call performed the
// transition (false if already terminal — a DELETE racing completion
// keeps the first outcome).
func (j *Job) finish(state State, errMsg string) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.err = errMsg
	j.finished = time.Now()
	j.cancel = nil
	j.mu.Unlock()
	j.stream.Close()
	close(j.done)
	return true
}

// requestCancel cancels a running job's context, or reports the job
// is still queued (the scheduler then finishes it directly). Terminal
// jobs are left alone.
func (j *Job) requestCancel() (wasQueued, wasRunning bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		return true, false
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return false, true
	}
	return false, false
}

// setOutcome records a finished run's result fields before finish.
func (j *Job) setOutcome(solved, shared, resumed, stored bool, best float64, gens int) {
	j.mu.Lock()
	j.solved = solved
	j.shared = shared
	j.resumed = resumed
	j.stored = stored
	j.best = best
	j.gens = gens
	j.mu.Unlock()
}

// PublishRunner publishes (or clears, with nil) the live runner an
// executor is driving, so CheckpointJob can reach it, and applies any
// checkpoint request that arrived while the job was still queued.
func (j *Job) PublishRunner(r *evolve.Runner) {
	j.runner.Store(r)
	if r == nil {
		return
	}
	j.mu.Lock()
	asked := j.ckptAsked
	j.ckptAsked = false
	j.mu.Unlock()
	if asked {
		r.RequestCheckpoint()
	}
}

// noteRecord bumps the streamed-generation count and best fitness as
// records flow — so GET /jobs/{id} shows live progress.
func (j *Job) noteRecord(maxFitness float64) {
	j.mu.Lock()
	j.gens++
	if maxFitness > j.best || j.gens == 1 {
		j.best = maxFitness
	}
	j.mu.Unlock()
}
