package evolve

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/gene"
	"repro/internal/neat"
)

func poolRunner(t *testing.T, pop int) *Runner {
	t.Helper()
	cfg := neat.DefaultConfig(0, 0)
	cfg.PopulationSize = pop
	r, err := NewRunner("cartpole", cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEvaluateGenerationCancelled(t *testing.T) {
	r := poolRunner(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := r.EvaluateGeneration(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The parallel dispatch path must honor cancellation too.
	r.Parallelism = 4
	if _, _, _, err := r.EvaluateGeneration(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
	// The runner stays usable after a cancelled evaluation.
	if _, _, _, err := r.EvaluateGeneration(context.Background()); err != nil {
		t.Fatalf("evaluation after cancel: %v", err)
	}
}

func TestWorkerPoolPersistsAcrossGenerations(t *testing.T) {
	r := poolRunner(t, 16)
	ctx := context.Background()
	if _, err := r.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if len(r.workers) == 0 {
		t.Fatal("no workers after first generation")
	}
	w0 := r.workers[0]
	for i := 0; i < 3; i++ {
		if _, err := r.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if r.workers[0] != w0 {
		t.Fatal("worker slot rebuilt between generations; pool is not persistent")
	}
}

// TestPhenoCacheHitsAcrossGenerations pins the genome-level reuse: with
// elitism on, at least one phenotype per generation after the first must
// be served from the cache instead of recompiled.
func TestPhenoCacheHitsAcrossGenerations(t *testing.T) {
	r := poolRunner(t, 24)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := r.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := r.PhenoCache().Stats()
	if hits == 0 {
		t.Fatalf("no cache hits over 4 generations (misses=%d); elites are being recompiled", misses)
	}
	// Sweep keeps the cache bounded by the live population, not the
	// cumulative history.
	if n := r.PhenoCache().Len(); n > 2*len(r.Pop.Genomes) {
		t.Fatalf("cache holds %d programs for a %d-genome population", n, len(r.Pop.Genomes))
	}
}

// TestUnmutatedChildEvaluatesRaceFree evaluates generations of genomes
// built the way crossover builds a child that no mutation then touches
// — NewGenome plus directly appended genes — on the scalar path with
// two workers, which evaluate one genome's episodes concurrently. Each
// episode reads the genome's phenotype stamp through the compile cache;
// under -race this fails if reading a stamp can write it.
func TestUnmutatedChildEvaluatesRaceFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r := poolRunner(t, 8)
	r.Scalar, r.Parallelism = true, 2
	parent := r.Pop.Genomes[0]
	for round := 0; round < 8; round++ {
		for i := 1; i < len(r.Pop.Genomes); i++ {
			child := gene.NewGenome(int64(100 + round*len(r.Pop.Genomes) + i))
			child.Nodes = append(child.Nodes, parent.Nodes...)
			child.Conns = append(child.Conns, parent.Conns...)
			r.Pop.Genomes[i] = child
		}
		if _, _, _, err := r.EvaluateGeneration(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
