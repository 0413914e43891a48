package evolve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/env"
	"repro/internal/gene"
	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/network"
)

// GenStats is the per-generation characterization record: everything
// Section III plots, plus the inference-work totals the platform and
// hardware models charge for.
type GenStats struct {
	Generation int

	// Fitness metrics (raw and Fig. 4a-normalized).
	MaxFitness  float64
	MeanFitness float64
	NormMax     float64
	NormMean    float64
	Solved      bool

	// Population structure (Fig. 4b, Fig. 11a, Fig. 5b).
	TotalGenes     int
	NodeGenes      int
	ConnGenes      int
	FootprintBytes int
	NumSpecies     int

	// Reproduction characterization (Fig. 5a, Fig. 4c).
	CrossoverOps       int64
	MutationOps        int64
	FittestParentReuse int
	MaxParentReuse     int

	// Inference work of the evaluation phase: environment steps summed
	// over the population, and the MAC count those steps performed
	// (edges × steps per genome), the quantities Fig. 9a/9b charge.
	EnvSteps      int64
	InferenceMACs int64
	// VertexUpdates is the number of node evaluations performed.
	VertexUpdates int64
}

// CounterReport renders the stats as a hwsim report node named
// "evolve" — the structured-row form per-generation records flow
// through to stats and the CLIs.
func (st GenStats) CounterReport() hwsim.Report {
	return hwsim.Report{
		Name: "evolve",
		Ints: map[string]int64{
			"solved":               boolInt(st.Solved),
			"total_genes":          int64(st.TotalGenes),
			"node_genes":           int64(st.NodeGenes),
			"conn_genes":           int64(st.ConnGenes),
			"footprint_bytes":      int64(st.FootprintBytes),
			"num_species":          int64(st.NumSpecies),
			"crossover_ops":        st.CrossoverOps,
			"mutation_ops":         st.MutationOps,
			"fittest_parent_reuse": int64(st.FittestParentReuse),
			"max_parent_reuse":     int64(st.MaxParentReuse),
			"env_steps":            st.EnvSteps,
			"inference_macs":       st.InferenceMACs,
			"vertex_updates":       st.VertexUpdates,
		},
		Floats: map[string]float64{
			"max_fitness":  st.MaxFitness,
			"mean_fitness": st.MeanFitness,
			"norm_max":     st.NormMax,
			"norm_mean":    st.NormMean,
		},
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Runner evolves one workload, recording per-generation statistics and
// (optionally) a reproduction trace.
type Runner struct {
	Workload Workload
	Pop      *neat.Population
	// History accumulates one GenStats per evaluated generation.
	History []GenStats
	// Parallelism caps the evaluation worker pool (population-level
	// parallelism); 0 means GOMAXPROCS.
	Parallelism int
	// BatchWidth is the lane count of the tensorized batch engine (the
	// number of episodes one worker advances in lock-step); 0 selects
	// the default width. See batch.go.
	BatchWidth int
	// Scalar disables the batch engine and evaluates with the reference
	// serial semantics (one episode at a time per worker). The batch
	// engine is pinned byte-identical to this path by the differential
	// tests; the knob exists for those tests and for debugging.
	Scalar bool
	// Sink, when set, receives one hwsim.Record per completed
	// generation (the GenStats counter tree), tagged with the workload
	// name.
	Sink hwsim.Sink
	// CheckpointPath, together with CheckpointEvery, makes Run persist
	// the population to this file at generation boundaries (atomic
	// temp-file + rename, so a crash mid-write never corrupts the last
	// good checkpoint) and on context cancellation.
	CheckpointPath string
	// CheckpointEvery is the checkpoint interval in generations; 0
	// disables periodic checkpoints.
	CheckpointEvery int
	// Phases, when set, receives per-phase wall-clock accounting from
	// every Step: evaluate_ns / speciate_ns / reproduce_ns accumulated
	// across generations, plus a generations count. Wall-clock is
	// host-dependent by nature, so it lives only in this live counter
	// node (surfaced through /metrics) and is deliberately kept out of
	// GenStats and the per-generation record stream, which are pinned
	// byte-identical across hosts and replays.
	Phases *hwsim.Counters

	// trackChampion (island runners, see RunSpec.runner) makes every
	// Step clone the generation's best genome post-evaluation (before
	// reproduction replaces the population), so island-model migration
	// can export it after the fact; see Champion.
	trackChampion bool
	champion      *gene.Genome
	// objectives, when non-empty (Pareto runners), switches the runner
	// into multi-objective mode: every Step ranks the evaluated
	// population with the NSGA-II machinery over this vector and shapes
	// selection from the resulting total order; the rank-0 front is
	// captured per generation (see Front). Empty keeps the scalar path
	// byte-identical — no moea code runs. See pareto.go.
	objectives []string
	front      []ParetoPoint

	name     string
	opCounts neat.OpCounts
	seed     uint64
	extraRec neat.Recorder
	// ckptReq is the cross-goroutine checkpoint request flag; see
	// RequestCheckpoint.
	ckptReq atomic.Bool

	// workers is the persistent population-level-parallelism pool: one
	// slot per evaluation worker, each owning an environment instance, a
	// reward shaper, and a compile Builder scratch. Slots are created
	// lazily on the first EvaluateGeneration and live for the runner's
	// lifetime, so generations after the first pay no environment
	// construction or compile-scratch allocation.
	workers []*evalWorker
	// phenos caches compiled phenotypes across generations keyed on the
	// genome version stamp — the software form of the paper's
	// genome-level reuse: elites and champions carry their parent's
	// stamp and skip recompilation.
	phenos network.Cache
	// dispatch is the reusable job-order scratch for EvaluateGeneration.
	dispatch []int
	// Batch-dispatch scratch, reused across generations so steady-state
	// evaluation allocates nothing: per-(genome, episode) fitness slots,
	// the LPT job list, topology groups (with their member slices), and
	// the TopoKey bucket index.
	perEpScratch []float64
	jobScratch   []batchJob
	groupScratch []evalGroup
	bucketIdx    map[uint64][]int
}

// evalWorker is one persistent slot of the evaluation pool. The first
// three fields serve the scalar (reference) path; the rest are the
// batch engine's per-worker resources, created lazily by ensureBatch
// and reused across generations (zero-alloc steady state).
type evalWorker struct {
	env     env.Env
	shaper  Shaper
	builder *network.Builder

	// laneSets holds the batch rollout state (vectorized env + planes)
	// per quantized lane width; widths recur across generations, so the
	// map converges to a handful of entries and stops allocating.
	laneSets map[int]*laneSet
	// obsCol is the gather scratch for Observe of non-trivial shapers.
	obsCol []float64
	// netSlots caches one loaded BatchProgram (+state) per (phenotype
	// topology, width), bucketed by TopoKey with structural
	// confirmation, and swept generationally like the phenotype cache.
	netSlots map[uint64][]*netSlot
}

// NewRunner builds a population configured for the workload's
// environment dimensions and wires up the op-count recorder.
func NewRunner(workloadName string, cfg neat.Config, seed uint64) (*Runner, error) {
	w, err := WorkloadByName(workloadName)
	if err != nil {
		return nil, err
	}
	probe, err := env.New(w.EnvName)
	if err != nil {
		return nil, err
	}
	cfg.NumInputs = probe.ObservationSize()
	cfg.NumOutputs = probe.ActionSize()
	pop, err := neat.NewPopulation(cfg, seed)
	if err != nil {
		return nil, err
	}
	return adopt(w, workloadName, pop, seed), nil
}

// adopt wraps pop in a runner for workload w.
func adopt(w Workload, name string, pop *neat.Population, seed uint64) *Runner {
	r := &Runner{Workload: w, Pop: pop, name: name, seed: seed}
	pop.SetRecorder(&r.opCounts)
	return r
}

// SetRecorder attaches an additional reproduction recorder (e.g. a
// hardware trace) alongside the internal op counter.
func (r *Runner) SetRecorder(rec neat.Recorder) {
	r.extraRec = rec
	r.Pop.SetRecorder(neat.MultiRecorder(&r.opCounts, rec))
}

// evalResult carries one evaluation unit (a genome, or one of its
// episodes) back from a worker.
type evalResult struct {
	idx     int
	ep      int
	fitness float64
	steps   int64
	macs    int64
	updates int64
	err     error
}

// ensureWorkers grows the persistent pool to at least n slots, building
// each new slot's environment, shaper, and compile scratch once.
func (r *Runner) ensureWorkers(n int) error {
	for len(r.workers) < n {
		e, err := env.New(r.Workload.EnvName)
		if err != nil {
			return err
		}
		r.workers = append(r.workers, &evalWorker{
			env:     e,
			shaper:  r.Workload.NewShaper(),
			builder: new(network.Builder),
		})
	}
	return nil
}

// EvaluateGeneration scores every genome in the current population
// (steps 1–6 of the walkthrough), exploiting population-level
// parallelism with the persistent worker pool. It returns aggregate
// inference work. Dispatch stops as soon as ctx is cancelled — in-flight
// work finishes, queued work is never started, and ctx.Err() is
// returned — so an interrupt does not have to wait out a full
// generation of long episodes.
//
// By default evaluation runs through the tensorized batch engine
// (batch.go): same-topology genomes advance many episodes in lock-step
// through struct-of-arrays planes. Results are byte-identical to the
// reference serial semantics below (Scalar true), which remain the
// executable specification.
func (r *Runner) EvaluateGeneration(ctx context.Context) (envSteps, macs, updates int64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	genomes := r.Pop.Genomes
	episodes := r.Workload.Episodes
	if episodes < 1 {
		episodes = 1
	}
	units := len(genomes) * episodes
	workers := r.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Evaluation is CPU-bound: workers beyond the scheduler's
	// processors cannot overlap and only add context switches.
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if workers > units {
		workers = units
	}
	if err := r.ensureWorkers(workers); err != nil {
		return 0, 0, 0, err
	}

	if !r.Scalar {
		return r.evaluateGenerationBatch(ctx, workers, episodes)
	}

	if workers == 1 {
		// Single-worker fast path: no goroutines, no channels — the
		// scheduler round-trips would be pure overhead on a one-core
		// budget. Still ctx-aware between genomes.
		w := r.workers[0]
		for _, g := range genomes {
			if err := ctx.Err(); err != nil {
				return 0, 0, 0, err
			}
			res := r.safeEvaluateGenome(w, g)
			if res.err != nil {
				return 0, 0, 0, res.err
			}
			g.Fitness = res.fitness
			envSteps += res.steps
			macs += res.macs
			updates += res.updates
		}
		r.phenos.Sweep()
		return envSteps, macs, updates, nil
	}

	// The parallel unit is one episode, not one genome: episodes are
	// independently seeded, so an elite's long episodes spread across
	// workers instead of forming a serial chain that bounds the whole
	// generation's wall time. Job j encodes (genome j/episodes,
	// episode j%episodes).
	jobs := make(chan int)
	results := make(chan evalResult, units)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wk := r.workers[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res := r.safeEvaluateEpisode(wk, genomes[j/episodes], j%episodes)
				res.idx, res.ep = j/episodes, j%episodes
				results <- res
			}
		}()
	}
	// Dispatch expensive genomes first. A genome's carried-over fitness
	// is a cheap proxy for its episode length (elites survive longest),
	// and the wall time of a generation is bounded by whichever worker
	// drew the longest chain: sending the long episodes first keeps the
	// pool busy instead of idling behind a straggler dispatched last.
	// Evaluation order does not affect results — every episode is fully
	// determined by its (seed, generation, genome, episode) reset.
	order := r.dispatch[:0]
	for j := 0; j < units; j++ {
		order = append(order, j)
	}
	r.dispatch = order
	sort.SliceStable(order, func(a, b int) bool {
		return genomes[order[a]/episodes].Fitness > genomes[order[b]/episodes].Fitness
	})
dispatch:
	for _, j := range order {
		select {
		case <-ctx.Done():
			break dispatch
		case jobs <- j:
		}
	}
	close(jobs)
	wg.Wait()
	close(results)

	// Per-episode fitness lands in its (genome, episode) slot so the
	// mean below sums in episode order — the exact float additions the
	// serial evaluator performed.
	perEp := make([]float64, units)
	for res := range results {
		if res.err != nil {
			return 0, 0, 0, res.err
		}
		perEp[res.idx*episodes+res.ep] = res.fitness
		envSteps += res.steps
		macs += res.macs
		updates += res.updates
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	for i, g := range genomes {
		var total float64
		for ep := 0; ep < episodes; ep++ {
			total += perEp[i*episodes+ep]
		}
		g.Fitness = total / float64(episodes)
	}
	// Retire cache entries no live genome touched this generation.
	r.phenos.Sweep()
	return envSteps, macs, updates, nil
}

// PhenoCache exposes the runner's compiled-phenotype reuse cache
// (tests, diagnostics).
func (r *Runner) PhenoCache() *network.Cache { return &r.phenos }

// ReleaseEvalState drops the runner's evaluation machinery — the
// persistent worker pool with its environments, batch planes, lane
// sets, and network slots; the compiled-phenotype cache; and the
// dispatch/group scratch — while leaving the result surface (History,
// Pop, ScoreGenome, the trace already recorded) fully usable.
// Everything released here is rebuilt lazily if the runner evaluates
// again, so the only cost of calling it too eagerly is a warm-up
// generation. Long-lived caches of finished runs call this so a
// retained entry costs its history and population, not the whole
// evaluation engine: on a busy daemon the batch planes of hundreds of
// completed jobs would otherwise stay live and turn every GC cycle
// into a scan of dead scratch.
func (r *Runner) ReleaseEvalState() {
	r.workers = nil
	r.phenos.Reset()
	r.dispatch = nil
	r.perEpScratch = nil
	r.jobScratch = nil
	r.groupScratch = nil
	r.bucketIdx = nil
}

// ScoreGenome re-evaluates one genome on the runner's workload with
// the runner's deterministic episode seeds, without touching the
// population, the worker pool, or the phenotype cache — safe to call
// concurrently on a finished run whose artifacts are shared (the
// experiment harness's run cache hands one evolved runner to many
// figure generators). The returned fitness is exactly what
// EvaluateGeneration would assign the genome at the current generation
// boundary: the same per-(generation, genome, episode) seeds, episode
// fitnesses summed in episode order.
func (r *Runner) ScoreGenome(ctx context.Context, g *gene.Genome) (fitness float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	e, err := env.New(r.Workload.EnvName)
	if err != nil {
		return 0, err
	}
	defer func() {
		if p := recover(); p != nil {
			fitness, err = 0, fmt.Errorf("genome %d: evaluation panic: %v", g.ID, p)
		}
	}()
	net, err := new(network.Builder).Build(g)
	if err != nil {
		return 0, fmt.Errorf("genome %d: %w", g.ID, err)
	}
	res := r.runEpisodes(net, e, r.Workload.NewShaper(), g)
	return res.fitness, res.err
}

// safeEvaluateGenome is the whole-genome evaluation unit of the serial
// fast path: compile through the reuse cache, run every episode, with
// the same panic shield as the parallel workers.
func (r *Runner) safeEvaluateGenome(w *evalWorker, g *gene.Genome) (res evalResult) {
	defer func() {
		if p := recover(); p != nil {
			res = evalResult{err: fmt.Errorf("genome %d: evaluation panic: %v", g.ID, p)}
		}
	}()
	net, err := r.phenos.Get(w.builder, g)
	if err != nil {
		return evalResult{err: fmt.Errorf("genome %d: %w", g.ID, err)}
	}
	return r.runEpisodes(net, w.env, w.shaper, g)
}

// safeEvaluateEpisode shields the worker pool from a panicking fitness
// evaluation: the panic surfaces as that episode's evaluation error
// instead of unwinding the worker goroutine and killing the process. It
// compiles the genome through the reuse cache, so an unchanged elite
// costs two buffer allocations instead of a rebuild.
func (r *Runner) safeEvaluateEpisode(w *evalWorker, g *gene.Genome, ep int) (res evalResult) {
	defer func() {
		if p := recover(); p != nil {
			res = evalResult{err: fmt.Errorf("genome %d: evaluation panic: %v", g.ID, p)}
		}
	}()
	net, err := r.phenos.Get(w.builder, g)
	if err != nil {
		return evalResult{err: fmt.Errorf("genome %d: %w", g.ID, err)}
	}
	return r.runEpisode(net, w.env, w.shaper, g, ep)
}

// runEpisode scores one compiled phenotype over one workload episode.
// The inner step loop is allocation-free: Feed reuses the instance's
// output buffer and the environments reuse their observation buffers.
func (r *Runner) runEpisode(net *network.Network, e env.Env, shaper Shaper, g *gene.Genome, ep int) evalResult {
	// Deterministic per-(generation, genome, episode) seed.
	seed := r.seed ^ uint64(r.Pop.Generation)<<40 ^ uint64(g.ID)<<8 ^ uint64(ep)
	obs := e.Reset(seed)
	shaper.Reset()
	steps := 0
	for {
		action, ferr := net.Feed(obs)
		if ferr != nil {
			return evalResult{err: fmt.Errorf("genome %d: %w", g.ID, ferr)}
		}
		var reward float64
		var done bool
		obs, reward, done = e.Step(action)
		shaper.Observe(obs, reward)
		steps++
		if done {
			break
		}
	}
	var res evalResult
	res.fitness = shaper.Fitness(e, steps)
	// Per-step inference work is constant for a fixed phenotype, so the
	// ledger is a multiply per episode, not adds per step.
	res.steps = int64(steps)
	res.macs = int64(steps) * int64(net.NumEdges())
	res.updates = int64(steps) * int64(net.NumVertices()-net.NumInputs())
	return res
}

// runEpisodes scores one compiled phenotype over all of the workload's
// episodes serially — the single-genome path Lamarckian refinement uses.
func (r *Runner) runEpisodes(net *network.Network, e env.Env, shaper Shaper, g *gene.Genome) evalResult {
	var res evalResult
	var total float64
	episodes := r.Workload.Episodes
	if episodes < 1 {
		episodes = 1
	}
	for ep := 0; ep < episodes; ep++ {
		er := r.runEpisode(net, e, shaper, g, ep)
		if er.err != nil {
			return er
		}
		total += er.fitness
		res.steps += er.steps
		res.macs += er.macs
		res.updates += er.updates
	}
	res.fitness = total / float64(episodes)
	return res
}

// Step evaluates the current generation and, unless it solved the task,
// reproduces the next one. It appends and returns the generation's
// stats. A cancelled ctx aborts the evaluation between episodes and
// surfaces ctx.Err(); the population is left un-reproduced, so the
// generation re-evaluates deterministically on resume.
func (r *Runner) Step(ctx context.Context) (GenStats, error) {
	w := r.Workload
	evalStart := time.Now()
	envSteps, macs, updates, err := r.EvaluateGeneration(ctx)
	if err != nil {
		return GenStats{}, err
	}
	evalDur := time.Since(evalStart)

	best := r.Pop.Best()
	if r.trackChampion {
		// Clone at the evaluation boundary: Epoch below may retire the
		// genome, and the exported champion must be the scored individual,
		// not a mutated descendant.
		r.champion = best.Clone()
	}
	nodes, conns := r.Pop.GeneComposition()
	st := GenStats{
		Generation:     r.Pop.Generation,
		MaxFitness:     best.Fitness,
		MeanFitness:    r.Pop.MeanFitness(),
		TotalGenes:     r.Pop.TotalGenes(),
		NodeGenes:      nodes,
		ConnGenes:      conns,
		FootprintBytes: r.Pop.FootprintBytes(),
		EnvSteps:       envSteps,
		InferenceMACs:  macs,
		VertexUpdates:  updates,
	}
	st.NormMax = w.Normalize(st.MaxFitness)
	st.NormMean = w.Normalize(st.MeanFitness)
	st.Solved = st.MaxFitness >= w.Target

	if len(r.objectives) > 0 {
		// Pareto mode: rank the evaluated population and shape selection
		// from the NSGA-II total order. Stats above were already taken
		// from the task fitness, so records and Solved stay meaningful;
		// shaping is skipped on the final (solved) generation, whose
		// population is never reproduced.
		if err := r.applyPareto(!st.Solved); err != nil {
			return GenStats{}, err
		}
	}

	var speciateDur, reproduceDur time.Duration
	if !st.Solved {
		r.opCounts.Reset()
		// The epoch rides the same parallelism budget as the evaluation
		// pool: its distance pass fans out over bounded workers while
		// assignment and reproduction stay serial (outputs identical at
		// every setting).
		epochWorkers := r.Parallelism
		if mp := runtime.GOMAXPROCS(0); epochWorkers <= 0 || epochWorkers > mp {
			epochWorkers = mp
		}
		r.Pop.EpochParallelism = epochWorkers
		epochStart := time.Now()
		repro, err := r.Pop.Epoch()
		if err != nil {
			return GenStats{}, err
		}
		epochDur := time.Since(epochStart)
		speciateDur = repro.SpeciateDur
		reproduceDur = epochDur - speciateDur
		st.NumSpecies = repro.NumSpecies
		st.CrossoverOps = r.opCounts.Crossovers()
		st.MutationOps = r.opCounts.Mutations()
		st.FittestParentReuse = repro.FittestParentReuse
		st.MaxParentReuse = repro.MaxParentReuse
	}
	if r.Phases != nil {
		r.Phases.AddInt("generations", 1)
		r.Phases.AddInt("evaluate_ns", evalDur.Nanoseconds())
		r.Phases.AddInt("speciate_ns", speciateDur.Nanoseconds())
		r.Phases.AddInt("reproduce_ns", reproduceDur.Nanoseconds())
	}

	r.History = append(r.History, st)
	if r.Sink != nil {
		r.Sink.Record(st.record(r.name))
	}
	return st, nil
}

// record is the generation's wire record, tagged with workload.
func (st GenStats) record(workload string) hwsim.Record {
	return hwsim.Record{Workload: workload, Generation: st.Generation, Report: st.CounterReport()}
}

// ReplayHistory re-emits a finished run's per-generation records in
// order — byte-identical to what the run's Sink saw live, so a replayed
// job stream cannot be told from a computed one.
func ReplayHistory(workload string, history []GenStats, sink hwsim.Sink) {
	if sink == nil {
		return
	}
	for _, st := range history {
		sink.Record(st.record(workload))
	}
}

// RequestCheckpoint asks a Run in progress to persist the population
// at the next generation boundary. It is the only checkpoint entry
// point that is safe to call from another goroutine while Run is
// executing: the save itself still happens on the Run goroutine,
// between Step calls, where the population is quiescent — so the
// written checkpoint is always a consistent boundary snapshot and the
// call is race-free by construction. A no-op when CheckpointPath is
// unset. This is what lets a serving layer checkpoint a live job on
// demand without stopping it.
func (r *Runner) RequestCheckpoint() { r.ckptReq.Store(true) }

// Run executes steps until the population reaches maxGenerations,
// stopping early when the target fitness is reached or ctx is
// cancelled. The loop is bounded by the population's own generation
// counter (not a local one), so a runner restored from a checkpoint
// continues where the interrupted run stopped rather than replaying
// the full budget. It reports whether the task was solved; a
// cancellation returns ctx.Err() after a final checkpoint (when
// checkpointing is configured), so the run can resume at the exact
// boundary it was cut at.
func (r *Runner) Run(ctx context.Context, maxGenerations int) (bool, error) {
	for r.Pop.Generation < maxGenerations {
		if err := ctx.Err(); err != nil {
			if r.CheckpointPath != "" {
				if serr := r.SaveCheckpoint(r.CheckpointPath); serr != nil {
					return false, errors.Join(err, serr)
				}
			}
			return false, err
		}
		st, err := r.Step(ctx)
		if err != nil {
			// A cancellation mid-evaluation leaves the population at the
			// same pre-Epoch boundary as the pre-step check above (the
			// PRNG is untouched during evaluation), so the checkpoint
			// resumes bit-identically by re-evaluating the generation.
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) && r.CheckpointPath != "" {
				if serr := r.SaveCheckpoint(r.CheckpointPath); serr != nil {
					return false, errors.Join(err, serr)
				}
			}
			return false, err
		}
		if st.Solved {
			return true, nil
		}
		periodic := r.CheckpointEvery > 0 && r.Pop.Generation%r.CheckpointEvery == 0
		requested := r.ckptReq.Swap(false)
		if r.CheckpointPath != "" && (periodic || requested) {
			if err := r.SaveCheckpoint(r.CheckpointPath); err != nil {
				return false, fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	return false, nil
}

// SaveCheckpoint atomically persists the population state: the JSON is
// written to a temp file in the target directory and renamed over
// path, so an interrupted save leaves the previous checkpoint intact.
func (r *Runner) SaveCheckpoint(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := r.Pop.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// RestoreFrom replaces the runner's population with the checkpoint
// state read from src and rewires the reproduction recorders. Because
// the checkpoint carries the PRNG stream and evaluation seeds derive
// from (runner seed, generation, genome, episode), the restored run
// continues bit-identically to the uninterrupted one. Resuming runs
// build their runner around the restored population instead
// (RunSpec.NewRunner), which seeds no population to discard.
func (r *Runner) RestoreFrom(src io.Reader) error {
	pop, err := neat.Restore(src, r.seed)
	if err != nil {
		return err
	}
	r.Pop = pop
	if r.extraRec != nil {
		pop.SetRecorder(neat.MultiRecorder(&r.opCounts, r.extraRec))
	} else {
		pop.SetRecorder(&r.opCounts)
	}
	return nil
}

// Champion returns the clone of the best genome at the most recent
// evaluated generation, or nil outside an island run or before any
// generation has been evaluated. The returned genome is owned by the
// caller — Step replaces the runner's copy rather than mutating it.
func (r *Runner) Champion() *gene.Genome { return r.champion }

// Last returns the most recent generation stats (zero value if none).
func (r *Runner) Last() GenStats {
	if len(r.History) == 0 {
		return GenStats{}
	}
	return r.History[len(r.History)-1]
}
