package evolve

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hw/hwsim"
)

// TestConcurrentCheckpointResumeBitIdentical is the race-detector
// proof of the on-demand checkpoint path the serving layer uses: a
// second goroutine hammers RequestCheckpoint while the run is live and
// generations are streaming to a sink, a mid-run checkpoint is copied
// aside the moment it appears, and a runner restored from that copy
// finishes with exactly the history suffix the uninterrupted run
// produced. Runs under -race via scripts/check.sh.
func TestConcurrentCheckpointResumeBitIdentical(t *testing.T) {
	// MountainCar at this seed/budget never solves (pinned by
	// TestCheckpointResumeBitIdentical), so histories are full length.
	const seed, budget = 13, 8
	ctx := context.Background()

	// Uninterrupted reference.
	ref, err := NewRunner("mountaincar", smallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(ctx, budget); err != nil {
		t.Fatal(err)
	}
	if len(ref.History) != budget {
		t.Fatalf("reference ran %d generations, want %d", len(ref.History), budget)
	}

	// Live run: sink streaming, checkpoint requests arriving from
	// another goroutine the whole time. CheckpointEvery is 0 — every
	// save on this run is an on-demand one. The request goroutine is
	// paced by the record stream (one full request+copy iteration per
	// generation boundary) so the test is deterministic on any
	// scheduler: every generation carries a pending request, and the
	// copier provably observes a mid-run checkpoint file.
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "live.ckpt")
	copied := filepath.Join(dir, "midrun.ckpt")
	b, err := NewRunner("mountaincar", smallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	b.CheckpointPath = ckpt
	log := &hwsim.Log{}
	bound := make(chan struct{})
	acked := make(chan struct{})
	b.Sink = hwsim.MultiSink(log, hwsim.SinkFunc(func(hwsim.Record) {
		bound <- struct{}{}
		<-acked
	}))

	grabbed := make(chan struct{})
	go func() {
		defer close(grabbed)
		for range bound {
			b.RequestCheckpoint()
			// Copy the first checkpoint that materializes: a mid-run
			// boundary snapshot. Saves go through temp+rename, so a
			// read here sees a complete file.
			if _, err := os.Stat(copied); err != nil {
				if data, err := os.ReadFile(ckpt); err == nil {
					os.WriteFile(copied, data, 0o644)
				}
			}
			acked <- struct{}{}
		}
	}()
	if _, err := b.Run(ctx, budget); err != nil {
		t.Fatal(err)
	}
	close(bound)
	<-grabbed

	// Concurrency must not perturb the run itself.
	if len(b.History) != len(ref.History) {
		t.Fatalf("live run %d generations vs reference %d", len(b.History), len(ref.History))
	}
	for i := range ref.History {
		if b.History[i] != ref.History[i] {
			t.Fatalf("generation %d diverged under concurrent checkpointing:\n%+v\nvs\n%+v",
				i, b.History[i], ref.History[i])
		}
	}
	if log.Len() != budget {
		t.Fatalf("sink saw %d records, want %d", log.Len(), budget)
	}

	if _, err := os.Stat(copied); err != nil {
		t.Fatalf("no mid-run checkpoint captured: %v", err)
	}

	// Resume from the mid-run snapshot: the continuation must be the
	// reference history's tail, stat for stat.
	c := resumeFrom(t, "mountaincar", copied, seed)
	cut := c.Pop.Generation
	if cut < 1 || cut >= budget {
		t.Fatalf("mid-run checkpoint at generation %d, want within (0, %d)", cut, budget)
	}
	if _, err := c.Run(ctx, budget); err != nil {
		t.Fatal(err)
	}
	tail := ref.History[cut:]
	if len(c.History) != len(tail) {
		t.Fatalf("resumed %d generations, reference tail has %d", len(c.History), len(tail))
	}
	for i := range tail {
		if c.History[i] != tail[i] {
			t.Fatalf("generation %d diverged after mid-run resume:\n%+v\nvs\n%+v",
				tail[i].Generation, c.History[i], tail[i])
		}
	}
}
