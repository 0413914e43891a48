package experiments

import (
	"fmt"

	"repro/internal/evolve"
	"repro/internal/store"
)

// This file is the island-model run kind's store codec: one
// islands.json artifact per key. The computation itself is pluggable
// (Request.Run) — the single-process reference by default, the
// coordinator's distributed executor in cluster mode — because both
// produce byte-identical IslandRuns, so what lands in the cache and the
// store is independent of where the islands evolved.

// islandSchema stamps islands.json artifacts.
const islandSchema = "genesys-island/1"

const islandsFile = "islands.json"

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
