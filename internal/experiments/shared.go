package experiments

import (
	"context"
	"os"

	"repro/internal/evolve"
	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file is the exported face of the run cache: the serving layer
// (internal/serve) submits evolution jobs through the exact same
// singleflight store the figure generators use, so a daemon job, a
// figure regeneration, and a duplicate client submission of the same
// (workload, population, generations, seed) all resolve to one
// executed evolution per process. Cached entries are uniform — every
// compute attaches a trace recorder — so an entry evolved for a
// daemon job can later feed a hardware-replay figure and vice versa.

// SharedRequest describes one evolution to run (or fetch) through the
// shared run cache. The tuple (Workload, Population, Generations,
// Seed) is the cache key; everything else shapes how a cache miss
// executes and does not affect identity.
type SharedRequest struct {
	Workload    string
	Population  int
	Generations int
	Seed        uint64

	// Ctx cancels a cache-miss evolution; nil means Background. A
	// cancelled compute is evicted from the cache (concurrent waiters
	// share the cancellation error; a later identical request
	// recomputes — and resumes from CheckpointPath if one was written).
	Ctx context.Context
	// Sink, when set, receives this run's per-generation records live
	// while it evolves. Only the computing request streams; a request
	// served from cache (Computed=false) gets no live records and
	// should replay SharedRun.Runner.History instead.
	Sink hwsim.Sink
	// Parallelism caps the runner's evaluation worker pool (0 =
	// GOMAXPROCS); a scheduler running many jobs passes 1 so its own
	// worker slots are the only parallelism.
	Parallelism int
	// BatchWidth caps the batch evaluation engine's lane count (0 =
	// engine default). Like Parallelism it shapes execution without
	// affecting identity — batch results are byte-identical to the
	// scalar reference at every width — so it is not in the cache key.
	BatchWidth int
	// CheckpointPath + CheckpointEvery enable the PR 2 checkpoint
	// machinery on a cache miss: the run persists at generation
	// boundaries, resumes from an existing file at that path, and the
	// file is removed after an uninterrupted completion (a stale
	// checkpoint never shadows a fresh run of a different key because
	// the path should encode the key).
	CheckpointPath  string
	CheckpointEvery int
	// ResumeFromPath, when set, is the checkpoint file the run restores
	// from instead of CheckpointPath — the cluster failover seam: a
	// worker taking over a dead worker's job resumes from the orphan's
	// owner-suffixed checkpoint while writing its own checkpoints to its
	// own CheckpointPath, so two workers never share a write target.
	// Both files are removed after an uninterrupted completion.
	ResumeFromPath string
	// OnRunner, when set, is called with the live runner just before a
	// cache-miss run starts — the hook a serving layer uses to wire
	// per-job control (Runner.RequestCheckpoint). The runner is owned
	// by the computing goroutine; callers must only use the
	// goroutine-safe Runner surface.
	OnRunner func(*evolve.Runner)
	// Phases, when set, receives the runner's per-phase wall-clock
	// counters (evaluate/speciate/reproduce) on a cache miss — a live
	// accounting node, not part of the cache key or the memoized run.
	// Cache hits and store replays execute no phases and charge nothing.
	Phases *hwsim.Counters
}

// SharedRun is the outcome of a shared-cache request.
type SharedRun struct {
	// Runner holds the finished run: History, Pop, workload. Shared
	// and immutable by contract — re-scoring goes through the
	// non-mutating Runner.ScoreGenome.
	Runner *evolve.Runner
	// Trace is the reproduction trace recorded during the run.
	Trace *trace.Trace
	// Solved reports whether the run reached the workload target.
	Solved bool
	// Resumed reports whether the compute restored a checkpoint (its
	// History then covers only the post-restore generations).
	Resumed bool
	// Computed is true only for the request whose compute executed the
	// evolution; concurrent and later requests of the same key see
	// false and share the first request's artifacts.
	Computed bool
	// Stored reports that this request's cache miss was served from the
	// persistent store: a full history replay with no evolution
	// executed. Like a memory hit it leaves Computed false, so callers
	// replay Runner.History.
	Stored bool
}

// key is the request's run identity: the literal tuple.
func (req SharedRequest) key() store.Key {
	return store.Key{Workload: req.Workload, Population: req.Population, Generations: req.Generations, Seed: req.Seed}
}

// RunShared resolves one evolution through the package's singleflight
// run cache: the first request of a key executes it (honoring Sink,
// checkpointing, and cancellation), concurrent requests block on that
// execution, later requests return the memoized run immediately.
func RunShared(req SharedRequest) (*SharedRun, error) {
	out, _, err := resolveShared(req)
	return out, err
}

// resolveShared is RunShared returning the cache entry too — the one
// scalar path, shared with the figure generators' runWorkload.
func resolveShared(req SharedRequest) (*SharedRun, *evolved, error) {
	e, src, err := runCache.resolve(req.key(), func() (*evolved, error) { return evolveShared(req) })
	if err != nil {
		return nil, nil, err
	}
	return &SharedRun{
		Runner:   e.runner,
		Trace:    e.trace,
		Solved:   e.solved,
		Resumed:  src == fromCompute && e.resumed,
		Computed: src == fromCompute,
		Stored:   src == fromStore,
	}, e, nil
}

// PeekShared answers a run request from what this process already has
// — the memory cache, then the persistent store — without ever
// computing. It is the coordinator's store-hit proxy seam: before
// dispatching a job to the fleet, the coordinator checks whether it
// can replay the run locally.
func PeekShared(workload string, population, generations int, seed uint64) (*SharedRun, bool) {
	e, stored, ok := runCache.peek(store.Key{Workload: workload, Population: population, Generations: generations, Seed: seed})
	if !ok {
		return nil, false
	}
	return &SharedRun{Runner: e.runner, Trace: e.trace, Solved: e.solved, Stored: stored}, true
}

// EvolutionsExecuted reports how many evolution computations (single
// runs plus studies) have executed since the last cache reset — the
// execution counter admission tests and the daemon's metrics use to
// prove deduplication.
func EvolutionsExecuted() int64 { return evolutionsExecuted() }

// evolveShared is the cache-miss body of RunShared. It runs on the
// requesting goroutine under the key's singleflight slot.
func evolveShared(req SharedRequest) (*evolved, error) {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = req.Population
	r, err := evolve.NewRunner(req.Workload, cfg, req.Seed)
	if err != nil {
		return nil, err
	}
	r.Parallelism = req.Parallelism
	r.BatchWidth = req.BatchWidth
	r.Sink = req.Sink
	r.Phases = req.Phases
	tr := &trace.Trace{}
	r.SetRecorder(tr)
	if req.CheckpointPath != "" {
		r.CheckpointPath = req.CheckpointPath
		r.CheckpointEvery = req.CheckpointEvery
	}
	resumed := false
	resume := req.ResumeFromPath
	if resume == "" {
		resume = req.CheckpointPath
	}
	if resume != "" {
		if _, serr := os.Stat(resume); serr == nil {
			if rerr := r.RestoreCheckpoint(resume); rerr != nil {
				return nil, rerr
			}
			resumed = true
		}
	}
	if req.OnRunner != nil {
		req.OnRunner(r)
	}
	solved, err := r.Run(orBackground(req.Ctx), req.Generations)
	if err != nil {
		return nil, err
	}
	// A completed run's checkpoint has served its purpose; removing it
	// keeps a later run that reuses the path (same key after a cache
	// reset) from "resuming" a finished population. The failover resume
	// source (the dead worker's orphan) is reclaimed too.
	if req.CheckpointPath != "" {
		os.Remove(req.CheckpointPath)
	}
	if req.ResumeFromPath != "" && req.ResumeFromPath != req.CheckpointPath {
		os.Remove(req.ResumeFromPath)
	}
	// Cached entries are read-only (History/Pop/trace; re-scoring uses
	// the self-contained ScoreGenome), so drop the evaluation engine
	// before the cache pins this runner for the process lifetime —
	// otherwise every finished daemon job keeps its batch planes and
	// environment pool live and GC scan time grows with jobs completed.
	r.ReleaseEvalState()
	return &evolved{runner: r, trace: tr, solved: solved, resumed: resumed}, nil
}
