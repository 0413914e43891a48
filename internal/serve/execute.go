package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/evolve"
	"repro/internal/experiments"
	"repro/internal/hw/hwsim"
)

// localExecutor is the default Executor: it runs jobs in-process
// through the experiment harness's shared run cache, exactly as the
// single-process daemon always has. Fleet workers use it too — the
// only difference is a WorkerID suffixing their checkpoint files.
type localExecutor struct {
	cfg Config
	// phases aggregates per-phase generation wall-clock
	// (evaluate/speciate/reproduce) across every cache-miss run this
	// executor computes; the scheduler adopts it into the /metrics tree.
	phases *hwsim.Counters
}

func newLocalExecutor(cfg Config) *localExecutor {
	return &localExecutor{cfg: cfg, phases: hwsim.New("phases")}
}

// Phases exposes the executor's phase-accounting node; the scheduler
// mounts it into the daemon's /metrics registry.
func (e *localExecutor) Phases() *hwsim.Counters { return e.phases }

// Execute resolves one job in-process through the shared run tier of
// its kind.
func (e *localExecutor) Execute(ctx context.Context, j *Job, sink hwsim.Sink) (Outcome, error) {
	return e.resolve(ctx, j, sink, nil)
}

// resolve runs a job through the shared run tier of its kind — the one
// switch on run kind in the executor path — and finishes its record
// stream. With fleet nil every cache miss computes in this process.
// On a coordinator, fleet places the misses: island runs shard across
// the live workers, scalar and Pareto runs go to the key's ring owner,
// except that a Pareto run with an empty fleet computes here (scalar
// jobs then fail with "no live workers"). Front records continue the
// history's generation numbers, so the coordinator's dedup proxy
// forwards a worker's Pareto stream unchanged.
//
// Island and Pareto runs have no checkpoint machinery: each is
// deterministic end to end, so interruption means recomputation, and
// the store tier still dedupes across restarts.
func (e *localExecutor) resolve(ctx context.Context, j *Job, sink hwsim.Sink, fleet *Dispatcher) (Outcome, error) {
	sp := j.Spec
	switch {
	case sp.IsIsland():
		req := experiments.IslandRequest{
			Workload:       sp.Workload,
			Population:     sp.Population,
			Generations:    sp.Generations,
			Islands:        sp.Islands,
			MigrationEvery: sp.MigrationEvery,
			Seed:           sp.Seed,
			Ctx:            ctx,
			Parallelism:    e.cfg.RunnerParallelism,
			BatchWidth:     e.cfg.RunnerBatchWidth,
			Phases:         e.phases,
		}
		if fleet != nil {
			req.Run = func(ctx context.Context) (*evolve.IslandRun, error) { return fleet.runIslandsOnFleet(ctx, j) }
		}
		out, err := experiments.RunSharedIsland(req)
		if err != nil {
			return Outcome{}, err
		}
		return islandResult(out.Run).outcome(sink, out.Computed, out.Stored, false), nil
	case sp.IsPareto():
		if fleet != nil {
			if len(fleet.Members.Live()) > 0 {
				return fleet.dispatch(ctx, j, sink)
			}
			// No fleet: the coordinator is the only compute. The run is
			// deterministic, so the result is identical to a worker's.
			fleet.ctr.AddInt("pareto_local", 1)
		}
		out, err := experiments.RunSharedPareto(experiments.ParetoRequest{
			Workload:    sp.Workload,
			Population:  sp.Population,
			Generations: sp.Generations,
			Seed:        sp.Seed,
			Objectives:  experiments.SplitObjectives(sp.Objectives),
			Ctx:         ctx,
			Parallelism: e.cfg.RunnerParallelism,
			BatchWidth:  e.cfg.RunnerBatchWidth,
			Phases:      e.phases,
			Sink:        sink,
		})
		if err != nil {
			return Outcome{}, err
		}
		return paretoResult(out.Run).outcome(sink, out.Computed, out.Stored, false), nil
	}
	if fleet != nil {
		return fleet.dispatch(ctx, j, sink)
	}
	req := experiments.SharedRequest{
		Workload:    sp.Workload,
		Population:  sp.Population,
		Generations: sp.Generations,
		Seed:        sp.Seed,
		Ctx:         ctx,
		Sink:        sink,
		Parallelism: e.cfg.RunnerParallelism,
		BatchWidth:  e.cfg.RunnerBatchWidth,
		OnRunner:    j.PublishRunner,
		Phases:      e.phases,
	}
	if e.cfg.CheckpointDir != "" {
		key := sp.key()
		req.CheckpointPath = checkpointFile(e.cfg.CheckpointDir, key, e.cfg.WorkerID)
		req.CheckpointEvery = e.cfg.CheckpointEvery
		// Resume from the freshest checkpoint of this key regardless of
		// which worker wrote it — the failover path: a re-dispatched job
		// picks up the dead worker's orphan.
		if resume, ok := findResume(e.cfg.CheckpointDir, key); ok && resume != req.CheckpointPath {
			req.ResumeFromPath = resume
		}
	}
	res, err := experiments.RunShared(req)
	if err != nil {
		return Outcome{}, err
	}
	return scalarResult(sp.Workload, res).outcome(sink, res.Computed, res.Stored, res.Resumed), nil
}

// peek answers a job spec from this process's run cache or store
// without computing — the coordinator's store-hit proxy — replaying
// the memoized record stream through sink.
func peek(sp Spec, sink hwsim.Sink) (Outcome, bool) {
	switch {
	case sp.IsIsland():
		run, stored, ok := experiments.PeekSharedIsland(sp.Workload, sp.Population, sp.Generations, sp.Islands, sp.MigrationEvery, sp.Seed)
		if !ok {
			return Outcome{}, false
		}
		return islandResult(run).outcome(sink, false, stored, false), true
	case sp.IsPareto():
		run, stored, ok := experiments.PeekSharedPareto(sp.Workload, sp.Population, sp.Generations, sp.Seed, experiments.SplitObjectives(sp.Objectives))
		if !ok {
			return Outcome{}, false
		}
		return paretoResult(run).outcome(sink, false, stored, false), true
	}
	run, ok := experiments.PeekShared(sp.Workload, sp.Population, sp.Generations, sp.Seed)
	if !ok {
		return Outcome{}, false
	}
	return scalarResult(sp.Workload, run).outcome(sink, false, run.Stored, false), true
}

// result is a resolved run of any kind as its job reports and streams
// it. The record stream is live followed by rest (either may be nil):
// a computing scalar or Pareto run emits its history live while it
// evolves; an island run's per-island runners never stream, so all of
// its stream is rest.
type result struct {
	solved     bool
	best       float64
	gens       int
	live, rest func(hwsim.Sink)
}

func scalarResult(workload string, run *experiments.SharedRun) result {
	h := run.Runner.History
	var best float64
	for i, st := range h {
		if i == 0 || st.MaxFitness > best {
			best = st.MaxFitness
		}
	}
	return result{
		solved: run.Solved, best: best, gens: len(h),
		live: func(sink hwsim.Sink) { evolve.ReplayHistory(workload, h, sink) },
	}
}

func paretoResult(run *evolve.ParetoRun) result {
	return result{
		solved: run.Solved, best: run.BestFitness, gens: len(run.History),
		live: func(sink hwsim.Sink) { evolve.ReplayHistory(run.Workload, run.History, sink) },
		rest: func(sink hwsim.Sink) { evolve.FrontRecords(run, sink) },
	}
}

func islandResult(run *evolve.IslandRun) result {
	return result{
		solved: run.Solved, best: run.BestFitness, gens: run.Evolved(),
		rest: func(sink hwsim.Sink) { evolve.ReplayIslandRecords(run, sink) },
	}
}

// outcome finishes the job's record stream — replaying the live part
// too unless this request computed the run and already streamed it —
// and folds the run into the job's Outcome. Every path emits the same
// records, so subscribers cannot tell a hit from a miss.
func (r result) outcome(sink hwsim.Sink, computed, stored, resumed bool) Outcome {
	if r.live != nil && !computed {
		r.live(sink)
	}
	if r.rest != nil {
		r.rest(sink)
	}
	return Outcome{Solved: r.solved, Shared: !computed, Resumed: resumed, Stored: stored, Best: r.best, Gens: r.gens}
}

// checkpointFile names the checkpoint a job writes: the cache key,
// plus an owner suffix when the process has a WorkerID, so fleet
// workers sharing a checkpoint directory never interleave writes into
// one file. '~' cannot appear in a canonical key, so the suffix parses
// back unambiguously (store.ParseKeyFilename strips it).
func checkpointFile(dir, key, owner string) string {
	name := key
	if owner != "" {
		name += "~" + owner
	}
	return filepath.Join(dir, name+".ckpt")
}

// findResume locates the freshest checkpoint for key in dir — the
// unowned "<key>.ckpt" or any owner's "<key>~<owner>.ckpt" — so a
// job re-dispatched after a worker death resumes from the orphan the
// dead worker left behind, whoever wrote it.
func findResume(dir, key string) (string, bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
	}
	var best string
	var bestMod int64
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		base, ok := strings.CutSuffix(name, ".ckpt")
		if !ok {
			continue
		}
		if owned, hasOwner := strings.CutPrefix(base, key+"~"); hasOwner {
			if owned == "" || strings.ContainsAny(owned, "/\\") {
				continue
			}
		} else if base != key {
			continue
		}
		info, ierr := ent.Info()
		if ierr != nil {
			continue
		}
		if mod := info.ModTime().UnixNano(); best == "" || mod > bestMod {
			best = filepath.Join(dir, name)
			bestMod = mod
		}
	}
	return best, best != ""
}
