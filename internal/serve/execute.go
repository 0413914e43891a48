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

// resolve runs a job through the shared run tier and finishes its
// record stream. With fleet nil every cache miss computes in this
// process. On a coordinator the only switch is placement: island runs
// shard across the live workers, scalar and Pareto runs go to the
// key's ring owner, except that a Pareto run with an empty fleet
// computes here (scalar jobs then fail with "no live workers"). Front
// records continue the history's generation numbers, so the
// coordinator's dedup proxy forwards a worker's Pareto stream
// unchanged.
//
// Island and Pareto runs have no checkpoint machinery: each is
// deterministic end to end, so interruption means recomputation, and
// the store tier still dedupes across restarts.
func (e *localExecutor) resolve(ctx context.Context, j *Job, sink hwsim.Sink, fleet *Dispatcher) (Outcome, error) {
	sp := j.Spec
	if fleet != nil && !sp.IsIsland() {
		if !sp.IsPareto() || len(fleet.Members.Live()) > 0 {
			return fleet.dispatch(ctx, j, sink)
		}
		// No fleet: the coordinator is the only compute. The run is
		// deterministic, so the result is identical to a worker's.
		fleet.ctr.AddInt("pareto_local", 1)
	}
	req := experiments.Request{RunSpec: sp.run(), Ctx: ctx, OnRunner: j.PublishRunner}
	req.Parallelism, req.BatchWidth, req.Phases, req.Sink = e.cfg.RunnerParallelism, e.cfg.RunnerBatchWidth, e.phases, sink
	if fleet != nil && sp.IsIsland() {
		req.Run = func(ctx context.Context) (*evolve.IslandRun, error) { return fleet.runIslandsOnFleet(ctx, j) }
	}
	if e.cfg.CheckpointDir != "" && !sp.IsIsland() && !sp.IsPareto() {
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
	out, err := experiments.Resolve(req)
	if err != nil {
		return Outcome{}, err
	}
	return finish(sp.Workload, out, sink), nil
}

// peek answers a job spec from this process's run cache or store
// without computing — the coordinator's store-hit proxy — replaying
// the memoized record stream through sink.
func peek(sp Spec, sink hwsim.Sink) (Outcome, bool) {
	out, ok := experiments.Peek(sp.run())
	if !ok {
		return Outcome{}, false
	}
	return finish(sp.Workload, out, sink), true
}

// finish completes a resolved run's record stream and folds the run
// into the job's Outcome. A computing scalar or Pareto run already
// streamed its history live, so only a request that did not compute
// replays it; a Pareto front and an island run's whole stream (island
// runners never stream) always follow. Every path emits the same
// records, so subscribers cannot tell a hit from a miss.
func finish(workload string, out *experiments.Resolved, sink hwsim.Sink) Outcome {
	o := Outcome{Solved: out.Solved, Shared: !out.Computed, Resumed: out.Resumed, Stored: out.Stored}
	switch {
	case out.Island != nil:
		o.Best, o.Gens = out.Island.BestFitness, out.Island.Evolved()
		evolve.ReplayIslandRecords(out.Island, sink)
	case out.Pareto != nil:
		run := out.Pareto
		o.Best, o.Gens = run.BestFitness, len(run.History)
		if !out.Computed {
			evolve.ReplayHistory(run.Workload, run.History, sink)
		}
		evolve.FrontRecords(run, sink)
	default:
		h := out.Runner.History
		for i, st := range h {
			if i == 0 || st.MaxFitness > o.Best {
				o.Best = st.MaxFitness
			}
		}
		o.Gens = len(h)
		if !out.Computed {
			evolve.ReplayHistory(workload, h, sink)
		}
	}
	return o
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
