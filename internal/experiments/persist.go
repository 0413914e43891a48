package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/evolve"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file is the scalar run kind's store codec: a committed artifact
// rehydrates into the same immutable (runner, trace, solved) entry an
// in-process evolution would have produced.
//
// Artifact layout per run (under the store's integrity manifest):
//
//	history.json    — schema-stamped GenStats slice + solved/seed
//	population.json — the final population in neat checkpoint format
//	trace.txt       — the reproduction trace
//
// GenStats fields are float64/int64 and Go's JSON encoding of float64
// is exact (shortest round-trip representation), so a replayed history
// is byte-identical to the computed one after re-marshaling — the
// property the durability test pins.

// runSchema stamps history.json; a mismatch means the artifact was
// written by an incompatible build and must recompute.
const runSchema = "genesys-run/1"

const (
	historyFile    = "history.json"
	populationFile = "population.json"
	traceFile      = "trace.txt"
)

// historyDoc is the history.json payload.
type historyDoc struct {
	Schema  string            `json:"schema"`
	Solved  bool              `json:"solved"`
	Seed    uint64            `json:"seed"`
	History []evolve.GenStats `json:"history"`
}

// errResumed refuses to encode a resumed run (see evolved.resumed).
var errResumed = errors.New("resumed run: history is truncated")

// encodeRun renders a finished scalar run as its artifact.
func encodeRun(k store.Key, e *evolved) (store.Meta, map[string][]byte, error) {
	if e.resumed {
		return store.Meta{}, nil, errResumed
	}
	history, err := json.Marshal(&historyDoc{Schema: runSchema, Solved: e.solved, Seed: k.Seed, History: e.runner.History})
	if err != nil {
		return store.Meta{}, nil, err
	}
	var pop bytes.Buffer
	if err := e.runner.Pop.Save(&pop); err != nil {
		return store.Meta{}, nil, err
	}
	var tr bytes.Buffer
	if _, err := e.trace.WriteTo(&tr); err != nil {
		return store.Meta{}, nil, err
	}
	var best float64
	if n := len(e.runner.History); n > 0 {
		best = e.runner.History[n-1].MaxFitness
	}
	return store.Meta{Solved: e.solved, BestFitness: best, Generations: len(e.runner.History)},
		map[string][]byte{historyFile: history, populationFile: pop.Bytes(), traceFile: tr.Bytes()}, nil
}

// decodeRun rebuilds the immutable run entry from committed payloads:
// the history replays verbatim, the runner is built around the
// population restored through the checkpoint decoder (with full genome
// validation), and the trace re-parses.
func decodeRun(k store.Key, art *store.Artifact) (*evolved, error) {
	var doc historyDoc
	if err := json.Unmarshal(art.Files[historyFile], &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", historyFile, err)
	}
	if doc.Schema != runSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", historyFile, doc.Schema, runSchema)
	}
	if doc.Seed != k.Seed {
		return nil, fmt.Errorf("%s: seed %d, want %d", historyFile, doc.Seed, k.Seed)
	}
	spec := evolve.RunSpec{Workload: k.Workload, Population: k.Population, Generations: k.Generations, Seed: k.Seed}
	r, err := spec.NewRunner(bytes.NewReader(art.Files[populationFile]))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", populationFile, err)
	}
	parsed, err := trace.Parse(bytes.NewReader(art.Files[traceFile]))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", traceFile, err)
	}
	r.History = doc.History
	r.ReleaseEvalState()
	return &evolved{runner: r, trace: parsed, solved: doc.Solved}, nil
}
