package experiments

import (
	"context"
	"fmt"

	"repro/internal/evolve"
	"repro/internal/hw/hwsim"
	"repro/internal/store"
)

// This file is the island-model run kind: its request, its store codec
// (one islands.json artifact per key), and its entry points over the
// shared run tier. The computation itself is pluggable — the
// single-process reference by default, the coordinator's distributed
// executor in cluster mode — because both produce byte-identical
// IslandRuns, so what lands in the cache and the store is independent
// of where the islands evolved.

// islandSchema stamps islands.json artifacts.
const islandSchema = "genesys-island/1"

const islandsFile = "islands.json"

// IslandRequest describes one island-model run to resolve through the
// shared cache. The tuple (Workload, Population, Generations, Islands,
// MigrationEvery, Seed) is the identity; the rest shapes execution.
type IslandRequest struct {
	Workload       string
	Population     int
	Generations    int
	Islands        int
	MigrationEvery int
	Seed           uint64

	// Ctx cancels a cache-miss computation; nil means Background.
	Ctx context.Context
	// Parallelism / BatchWidth shape each island runner's evaluation
	// (single-process path only; a distributed Run ships its own).
	Parallelism int
	BatchWidth  int
	// Phases, when set, receives the island runners' live per-phase
	// wall-clock counters on a single-process cache-miss computation
	// (metrics only, never stored).
	Phases *hwsim.Counters
	// Run, when set, executes the cache-miss computation — the
	// coordinator passes the distributed fleet executor here. Nil runs
	// the single-process reference (evolve.RunIslands). Either way the
	// result must be the deterministic IslandRun of the tuple.
	Run func(ctx context.Context) (*evolve.IslandRun, error)
}

// IslandOutcome is the result of a shared island request.
type IslandOutcome = RunOutcome[*evolve.IslandRun]

// key is the request's run identity.
func (req IslandRequest) key() store.Key {
	return store.Key{
		Workload:       req.Workload,
		Population:     req.Population,
		Generations:    req.Generations,
		Seed:           req.Seed,
		Islands:        req.Islands,
		MigrationEvery: req.MigrationEvery,
	}
}

// RunSharedIsland resolves one island-model run through the package's
// singleflight cache and the persistent store, computing on a cold
// miss via req.Run (or the single-process reference when unset).
func RunSharedIsland(req IslandRequest) (*IslandOutcome, error) {
	spec := evolve.IslandSpec{
		Workload:       req.Workload,
		Population:     req.Population,
		Generations:    req.Generations,
		Islands:        req.Islands,
		MigrationEvery: req.MigrationEvery,
		Seed:           req.Seed,
		Parallelism:    req.Parallelism,
		BatchWidth:     req.BatchWidth,
		Phases:         req.Phases,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if req.Run == nil {
		req.Run = func(ctx context.Context) (*evolve.IslandRun, error) { return evolve.RunIslands(ctx, spec) }
	}
	run, src, err := islandCache.resolve(req.key(), func() (*evolve.IslandRun, error) { return req.Run(orBackground(req.Ctx)) })
	if err != nil {
		return nil, err
	}
	return &IslandOutcome{Run: run, Computed: src == fromCompute, Stored: src == fromStore}, nil
}

// encodeIsland renders a finished island run as its artifact.
func encodeIsland(_ store.Key, run *evolve.IslandRun) (store.Meta, map[string][]byte, error) {
	return encodeDoc(islandsFile, islandSchema, run, store.Meta{Solved: run.Solved, BestFitness: run.BestFitness, Generations: run.Evolved()})
}

// decodeIsland rebuilds an island run from its artifact.
func decodeIsland(k store.Key, art *store.Artifact) (*evolve.IslandRun, error) {
	run, err := decodeDoc[evolve.IslandRun](art, islandsFile, islandSchema)
	if err == nil && (run.Seed != k.Seed || run.Islands != k.Islands) {
		return nil, fmt.Errorf("%s does not match its key", islandsFile)
	}
	return run, err
}

// PeekSharedIsland answers an island request from memory or disk
// without computing — the coordinator's store-hit proxy for island
// jobs, mirroring PeekShared.
func PeekSharedIsland(workload string, population, generations, islands, migrationEvery int, seed uint64) (*evolve.IslandRun, bool, bool) {
	return islandCache.peek(store.Key{Workload: workload, Population: population, Generations: generations, Seed: seed, Islands: islands, MigrationEvery: migrationEvery})
}
