package experiments

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"os"

	"repro/internal/evolve"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file is the exported face of the run cache: the serving layer
// (internal/serve) submits evolution jobs through the exact same
// singleflight store the figure generators use, so a daemon job, a
// figure regeneration, and a duplicate client submission of the same
// run all resolve to one executed evolution per process. Cached scalar
// entries are uniform — every compute attaches a trace recorder — so an
// entry evolved for a daemon job can later feed a hardware-replay
// figure and vice versa.

// Request describes one run to resolve through the shared run tier.
// The embedded RunSpec's identity fields are the cache and store key
// (see RunKey); its execution-shape fields and everything else here
// shape how a cache miss executes and do not affect identity.
type Request struct {
	evolve.RunSpec

	// Ctx cancels a cache-miss computation; nil means Background. A
	// cancelled compute is evicted from the cache (concurrent waiters
	// share the cancellation error; a later identical request
	// recomputes — and a scalar run resumes from CheckpointPath if one
	// was written). Only the computing request's Sink streams; a request
	// answered from memory or the store (Computed=false) replays the
	// returned run instead.
	Ctx context.Context

	// The remaining fields apply to scalar runs only; island and Pareto
	// runs are deterministic end to end, so an interruption recomputes.
	//
	// CheckpointPath + CheckpointEvery make a cache miss persist its
	// population at generation boundaries and resume from an existing
	// file at that path; the file is removed after an uninterrupted
	// completion (the path should encode the key, so a stale checkpoint
	// never shadows a run of a different key).
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

	// Run, when set, executes an island run's cache-miss computation —
	// the coordinator passes the distributed fleet executor here. Nil
	// runs the single-process reference (evolve.RunIslands). Either way
	// the result must be the deterministic IslandRun of the spec.
	Run func(ctx context.Context) (*evolve.IslandRun, error)
}

// Resolved is the answer to a run request. Exactly one kind of run is set: Runner
// and Trace for a scalar run, Island for an island run, Pareto for a
// Pareto run. Runs are shared and immutable by contract — re-scoring a
// scalar run goes through the non-mutating Runner.ScoreGenome.
type Resolved struct {
	// Runner holds a finished scalar run (History, Pop, workload) and
	// Trace its reproduction trace.
	Runner *evolve.Runner
	Trace  *trace.Trace
	Island *evolve.IslandRun
	Pareto *evolve.ParetoRun
	// Solved reports whether the run reached the workload target.
	Solved bool
	// Computed is true only for the request whose computation executed
	// the run; concurrent and later requests of the same key see false
	// and share the first request's run.
	Computed bool
	// Stored reports that this request's cache miss was served from the
	// persistent store: no evolution executed.
	Stored bool
	// Resumed reports that a scalar compute restored a checkpoint (its
	// History then covers only the post-restore generations).
	Resumed bool

	// scalar is a scalar run's shared cache entry, which the figure
	// generators read directly (runWorkload).
	scalar *evolved
}

// RunKey is a run's identity: the store.Key the run tiers, the
// persistent store and the serving layer address it by. It is the one
// mapping from a spec to a key.
func RunKey(s evolve.RunSpec) store.Key {
	return store.Key{
		Workload:       s.Workload,
		Population:     s.Population,
		Generations:    s.Generations,
		Seed:           s.Seed,
		Islands:        s.Islands,
		MigrationEvery: s.MigrationEvery,
		Objectives:     JoinObjectives(s.Objectives),
	}
}

// Resolve answers one run request through the tier of its kind: the
// first request of a key executes it (honoring Sink, checkpointing and
// cancellation) unless the persistent store holds it, concurrent
// requests block on that execution, later requests return the memoized
// run immediately.
func Resolve(req Request) (*Resolved, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	k, ctx := RunKey(req.RunSpec), orBackground(req.Ctx)
	out := &Resolved{}
	var src source
	var err error
	switch {
	case req.Islands > 0:
		run := req.Run
		if run == nil {
			run = func(ctx context.Context) (*evolve.IslandRun, error) { return evolve.RunIslands(ctx, req.RunSpec) }
		}
		out.Island, src, err = islandCache.resolve(k, func() (*evolve.IslandRun, error) { return run(ctx) })
	case len(req.Objectives) > 0:
		out.Pareto, src, err = paretoCache.resolve(k, func() (*evolve.ParetoRun, error) { return evolve.RunPareto(ctx, req.RunSpec) })
	default:
		out.scalar, src, err = runCache.resolve(k, func() (*evolved, error) { return evolveShared(req) })
	}
	if err != nil {
		return nil, err
	}
	return out.from(src), nil
}

// Peek answers a run from what this process already has — the memory
// cache, then the persistent store — without ever computing. It is the
// coordinator's store-hit proxy seam: before dispatching a job to the
// fleet, the coordinator checks whether it can replay the run locally.
func Peek(spec evolve.RunSpec) (*Resolved, bool) {
	k := RunKey(spec)
	out := &Resolved{}
	var src source
	var ok bool
	switch {
	case spec.Islands > 0:
		out.Island, src, ok = islandCache.peek(k)
	case len(spec.Objectives) > 0:
		out.Pareto, src, ok = paretoCache.peek(k)
	default:
		out.scalar, src, ok = runCache.peek(k)
	}
	if !ok {
		return nil, false
	}
	return out.from(src), true
}

// from fills the exported view of the run of o's kind and stamps how
// it was answered.
func (o *Resolved) from(src source) *Resolved {
	o.Computed, o.Stored = src == fromCompute, src == fromStore
	switch {
	case o.Island != nil:
		o.Solved = o.Island.Solved
	case o.Pareto != nil:
		o.Solved = o.Pareto.Solved
	default:
		o.Runner, o.Trace, o.Solved = o.scalar.runner, o.scalar.trace, o.scalar.solved
		o.Resumed = o.Computed && o.scalar.resumed
	}
	return o
}

// EvolutionsExecuted reports how many evolution computations (single
// runs plus studies) have executed since the last cache reset — the
// execution counter admission tests and the daemon's metrics use to
// prove deduplication.
func EvolutionsExecuted() int64 { return evolutionsExecuted() }

// evolveShared is the cache-miss body of a scalar Resolve. It runs on
// the requesting goroutine under the key's singleflight slot.
func evolveShared(req Request) (*evolved, error) {
	resume := req.ResumeFromPath
	if resume == "" {
		resume = req.CheckpointPath
	}
	var pop io.Reader
	if resume != "" {
		f, err := os.Open(resume)
		switch {
		case err == nil:
			defer f.Close()
			pop = f
		case !errors.Is(err, fs.ErrNotExist):
			return nil, err
		}
	}
	r, err := req.NewRunner(pop)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{}
	r.SetRecorder(tr)
	r.CheckpointPath, r.CheckpointEvery = req.CheckpointPath, req.CheckpointEvery
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
	return &evolved{runner: r, trace: tr, solved: solved, resumed: pop != nil}, nil
}
