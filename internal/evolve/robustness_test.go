package evolve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/neat"
)

func smallConfig() neat.Config {
	cfg := neat.DefaultConfig(4, 2)
	cfg.PopulationSize = 30
	return cfg
}

// TestCheckpointResumeBitIdentical pins the headline robustness
// guarantee: a run cut at a generation boundary and resumed from its
// checkpoint produces exactly the history the uninterrupted run would
// have — same per-generation stats, same verdict.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	// MountainCar needs shaped progress over many generations, so a
	// 3-generation cut never lands after a solve.
	const seed, cut, budget = 13, 3, 8
	ctx := context.Background()

	// Uninterrupted reference run.
	a, err := NewRunner("mountaincar", smallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	solvedA, err := a.Run(ctx, budget)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint every generation, stop at the cut.
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "mountaincar.ckpt")
	b1, err := NewRunner("mountaincar", smallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	b1.CheckpointPath = ckpt
	b1.CheckpointEvery = 1
	solvedEarly, err := b1.Run(ctx, cut)
	if err != nil {
		t.Fatal(err)
	}
	if solvedEarly {
		t.Fatalf("seed %d solves before generation %d; pick a harder seed", seed, cut)
	}

	// Fresh process: restore and finish the budget.
	b2 := resumeFrom(t, "mountaincar", ckpt, seed)
	if b2.Pop.Generation != cut {
		t.Fatalf("restored at generation %d, want %d", b2.Pop.Generation, cut)
	}
	solvedB, err := b2.Run(ctx, budget)
	if err != nil {
		t.Fatal(err)
	}

	if solvedB != solvedA {
		t.Fatalf("verdicts differ: resumed %v vs uninterrupted %v", solvedB, solvedA)
	}
	// The resumed history must be the uninterrupted history's tail,
	// stat for stat (GenStats is a comparable value struct).
	tail := a.History[cut:]
	if len(b2.History) != len(tail) {
		t.Fatalf("resumed %d generations, uninterrupted tail has %d",
			len(b2.History), len(tail))
	}
	for i := range tail {
		if b2.History[i] != tail[i] {
			t.Fatalf("generation %d diverged after resume:\n%+v\nvs\n%+v",
				tail[i].Generation, b2.History[i], tail[i])
		}
	}
}

// TestRunCancelledSavesCheckpoint: a cancelled Run returns ctx.Err()
// and leaves a restorable checkpoint behind.
func TestRunCancelledSavesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "cancel.ckpt")
	r, err := NewRunner("cartpole", smallConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	r.CheckpointPath = ckpt
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	solved, err := r.Run(ctx, 10)
	if solved || err != context.Canceled {
		t.Fatalf("cancelled run: solved=%v err=%v", solved, err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after cancellation: %v", err)
	}
	if r2 := resumeFrom(t, "cartpole", ckpt, 5); r2.Pop.Generation != 0 {
		t.Fatalf("cancellation checkpoint restored at generation %d, want 0", r2.Pop.Generation)
	}
}

// resumeFrom builds a runner around the population checkpointed at
// path, as a resuming study or job does.
func resumeFrom(t *testing.T, workload, path string, seed uint64) *Runner {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := RunSpec{Workload: workload}.runner(seed, f)
	if err != nil {
		t.Fatalf("checkpoint %s not restorable: %v", path, err)
	}
	return r
}

// panicShaper blows up on the first observation, modelling a fitness
// function bug.
type panicShaper struct{}

func (panicShaper) Reset()                     {}
func (panicShaper) Observe([]float64, float64) { panic("shaper bug") }
func (panicShaper) Fitness(env.Env, int) float64 {
	return 0
}

// TestEvaluationPanicBecomesError: a panicking fitness evaluation must
// surface as an evaluation error, not kill the worker pool (and with
// it the process).
func TestEvaluationPanicBecomesError(t *testing.T) {
	r, err := NewRunner("cartpole", smallConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r.Workload.NewShaper = func() Shaper { return panicShaper{} }
	_, _, _, err = r.EvaluateGeneration(context.Background())
	if err == nil {
		t.Fatal("panicking shaper produced no error")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panic not identified in error: %v", err)
	}
}

// TestStudyCancelledContext: a study launched with a dead context
// fails every run with the context error instead of hanging or
// panicking, and the per-run errors are preserved.
func TestStudyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := RunStudyContext(ctx, "cartpole", smallConfig(), 3, 5, 1, StudyOptions{})
	if err == nil {
		t.Fatal("cancelled study reported success")
	}
	if len(st.Results) != 3 {
		t.Fatalf("%d results", len(st.Results))
	}
	for _, res := range st.Results {
		if res.Err != context.Canceled {
			t.Fatalf("run %d: err %v, want context.Canceled", res.Run, res.Err)
		}
	}
}

// TestStudyCheckpointResume drives the acceptance scenario end to end:
// a study killed mid-run (simulated by a short budget) resumes from
// its checkpoint directory to the same per-run verdicts as an
// uninterrupted study.
func TestStudyCheckpointResume(t *testing.T) {
	const runs, seed, cut, budget = 2, 21, 3, 8
	ctx := context.Background()

	ref, err := RunStudyContext(ctx, "cartpole", smallConfig(), runs, budget, seed, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opt := StudyOptions{CheckpointDir: dir, CheckpointEvery: 1}
	if _, err := RunStudyContext(ctx, "cartpole", smallConfig(), runs, cut, seed, opt); err != nil {
		t.Fatal(err)
	}
	resumed, err := RunStudyContext(ctx, "cartpole", smallConfig(), runs, budget, seed, opt)
	if err != nil {
		t.Fatal(err)
	}

	for run := 0; run < runs; run++ {
		a, b := ref.Results[run], resumed.Results[run]
		if a.Solved != b.Solved {
			t.Fatalf("run %d: verdict %v resumed vs %v uninterrupted", run, b.Solved, a.Solved)
		}
		if len(a.History) == 0 || len(b.History) == 0 {
			t.Fatalf("run %d: empty history", run)
		}
		la, lb := a.History[len(a.History)-1], b.History[len(b.History)-1]
		if la != lb {
			t.Fatalf("run %d: final generation diverged:\n%+v\nvs\n%+v", run, lb, la)
		}
	}
}
