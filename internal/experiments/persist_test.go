package experiments

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/evolve"
	"repro/internal/store"
)

// persistReq is the tiny run the persistence tests evolve. The seed
// range (777xxx) is private to this file so no other test's cache
// entries alias these keys.
func persistReq(seed uint64) Request {
	return Request{RunSpec: evolve.RunSpec{Workload: "cartpole", Population: 16, Generations: 2, Seed: seed}}
}

func withTestStore(t *testing.T, cfg store.Config) *store.Store {
	t.Helper()
	if cfg.Root == "" {
		cfg.Root = t.TempDir()
	}
	s, err := store.Open(cfg)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	UseStore(s)
	t.Cleanup(func() {
		UseStore(nil)
		ResetCaches()
	})
	return s
}

func traceBytes(t *testing.T, run *Resolved) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := run.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestStoreRoundTripReplaysIdentically is the durability proof at the
// experiments layer: a run computed once, with the in-memory cache
// dropped (a "restart"), replays from disk with no evolution executed
// and a byte-identical history and trace.
func TestStoreRoundTripReplaysIdentically(t *testing.T) {
	withTestStore(t, store.Config{})
	ResetCaches()

	first, err := Resolve(persistReq(777001))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Computed || first.Stored {
		t.Fatalf("first run: Computed=%v Stored=%v", first.Computed, first.Stored)
	}
	wantHist, err := json.Marshal(first.Runner.History)
	if err != nil {
		t.Fatal(err)
	}
	wantTrace := traceBytes(t, first)

	ResetCaches() // the restart: memory gone, disk remains

	second, err := Resolve(persistReq(777001))
	if err != nil {
		t.Fatal(err)
	}
	if second.Computed || !second.Stored {
		t.Fatalf("replay: Computed=%v Stored=%v", second.Computed, second.Stored)
	}
	if got := EvolutionsExecuted(); got != 0 {
		t.Fatalf("replay executed %d evolutions", got)
	}
	gotHist, err := json.Marshal(second.Runner.History)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotHist) != string(wantHist) {
		t.Fatalf("replayed history differs:\n%s\n%s", gotHist, wantHist)
	}
	if second.Solved != first.Solved {
		t.Fatalf("solved: %v vs %v", second.Solved, first.Solved)
	}
	if got := traceBytes(t, second); got != wantTrace {
		t.Fatal("replayed trace differs")
	}
}

// TestStoreCorruptionRecomputes pins graceful degradation end to end:
// a quarantined artifact turns the disk hit back into a compute, and
// the recompute recommits.
func TestStoreCorruptionRecomputes(t *testing.T) {
	s := withTestStore(t, store.Config{})
	ResetCaches()

	if _, err := Resolve(persistReq(777002)); err != nil {
		t.Fatal(err)
	}
	key := store.Key{Workload: "cartpole", Population: 16, Generations: 2, Seed: 777002}
	s.QuarantineKey(key, "test poison")
	ResetCaches()

	got, err := Resolve(persistReq(777002))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Computed || got.Stored {
		t.Fatalf("after quarantine: Computed=%v Stored=%v", got.Computed, got.Stored)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("recompute did not recommit")
	}
}

// TestStoreSkipsResumedRuns pins the no-commit-on-resume rule: a run
// that restored a checkpoint carries a truncated history and must not
// enter the store.
func TestStoreSkipsResumedRuns(t *testing.T) {
	s := withTestStore(t, store.Config{})
	ResetCaches()

	// Produce a mid-run checkpoint for the 2-generation key: evolve the
	// same seed one generation and save its population at the path the
	// 2-generation request will look at.
	ckpt := filepath.Join(t.TempDir(), "cartpole-p16-g2-s777003.ckpt")
	g1 := persistReq(777003)
	g1.Generations = 1
	r, err := Resolve(g1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Runner.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	ResetCaches()

	full := persistReq(777003)
	full.CheckpointPath = ckpt
	full.CheckpointEvery = 1
	res, err := Resolve(full)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("run did not resume from the planted checkpoint")
	}
	if s.Has(store.Key{Workload: "cartpole", Population: 16, Generations: 2, Seed: 777003}) {
		t.Fatal("resumed run was committed to the store")
	}
}
