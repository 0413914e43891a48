package evolve

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/hw/hwsim"
	"repro/internal/moea"
)

// TestRunParetoDeterministicAcrossShapes pins the Pareto mode's core
// guarantee: the whole run — history and front — is byte-identical at
// any Parallelism/BatchWidth and on the scalar reference path, because
// objective values are pure functions of the deterministic evaluation
// and the NSGA-II assignment is serial with a strict total order.
func TestRunParetoDeterministicAcrossShapes(t *testing.T) {
	base := RunSpec{
		Workload:    "cartpole",
		Population:  32,
		Generations: 5,
		Seed:        7,
		Objectives:  DefaultParetoObjectives(),
	}
	shapes := []struct {
		name        string
		parallelism int
		batchWidth  int
		scalar      bool
	}{
		{"serial-scalar", 1, 0, true},
		{"parallel-batch", 4, 0, false},
		{"parallel-narrow", 3, 2, false},
	}
	var want []byte
	for _, sh := range shapes {
		spec := base
		spec.Parallelism = sh.parallelism
		spec.BatchWidth = sh.batchWidth
		run, err := runParetoShaped(t, spec, sh.scalar)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		raw, err := json.Marshal(run)
		if err != nil {
			t.Fatalf("%s: marshal: %v", sh.name, err)
		}
		if want == nil {
			want = raw
			if len(run.Front) == 0 {
				t.Fatalf("%s: empty front", sh.name)
			}
			continue
		}
		if string(raw) != string(want) {
			t.Fatalf("%s: run diverged from %s", sh.name, shapes[0].name)
		}
	}
}

// runParetoShaped is RunPareto with the test-only Scalar knob exposed.
func runParetoShaped(t *testing.T, spec RunSpec, scalar bool) (*ParetoRun, error) {
	t.Helper()
	if !scalar {
		return RunPareto(context.Background(), spec)
	}
	// Mirror RunPareto but force the scalar reference evaluator.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r, err := spec.runner(spec.Seed, nil)
	if err != nil {
		return nil, err
	}
	r.Scalar = true
	solved, err := r.Run(context.Background(), spec.Generations)
	if err != nil {
		return nil, err
	}
	last := r.Last()
	return &ParetoRun{
		Workload:    spec.Workload,
		Population:  spec.Population,
		Generations: spec.Generations,
		Seed:        spec.Seed,
		Objectives:  spec.Objectives,
		Solved:      solved,
		BestFitness: last.MaxFitness,
		History:     r.History,
		Front:       r.Front(),
	}, nil
}

// TestParetoFrontIsNonDominated re-derives the objective vector of
// every front genome from its decoded wire form and checks mutual
// non-domination plus value consistency.
func TestParetoFrontIsNonDominated(t *testing.T) {
	run, err := RunPareto(context.Background(), RunSpec{
		Workload:    "mountaincar",
		Population:  24,
		Generations: 4,
		Seed:        11,
		Objectives:  DefaultParetoObjectives(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Front) == 0 {
		t.Fatal("empty front")
	}
	objs, err := ResolveObjectives(run.Objectives)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]moea.Point, len(run.Front))
	for i, p := range run.Front {
		vals := make([]float64, len(run.Objectives))
		for m, name := range run.Objectives {
			v, ok := p.Values[name]
			if !ok {
				t.Fatalf("front point %d missing objective %q", i, name)
			}
			vals[m] = v
		}
		pts[i] = moea.Point{ID: p.GenomeID, Values: vals}
		// Structural objectives must match the genome wire form.
		var g struct {
			ID int64 `json:"ID"`
		}
		if err := json.Unmarshal(p.Genome, &g); err != nil {
			t.Fatalf("front point %d: decode genome: %v", i, err)
		}
		if g.ID != p.GenomeID {
			t.Fatalf("front point %d: genome ID %d != point ID %d", i, g.ID, p.GenomeID)
		}
	}
	res := moea.Sort(pts, objs)
	if len(res.Fronts) != 1 {
		t.Fatalf("stored front is not mutually non-dominating: %d sub-fronts", len(res.Fronts))
	}
}

// TestReplayParetoRecordsMatchesLive pins the wire contract: a live
// run's record stream (history via Sink, then FrontRecords) is
// byte-identical to ReplayParetoRecords over the stored run.
func TestReplayParetoRecordsMatchesLive(t *testing.T) {
	spec := RunSpec{
		Workload:    "cartpole",
		Population:  16,
		Generations: 3,
		Seed:        5,
		Objectives:  []string{"fitness", "energy"},
	}
	var live recordLog
	liveSpec := spec
	liveSpec.Sink = &live
	run, err := RunPareto(context.Background(), liveSpec)
	if err != nil {
		t.Fatal(err)
	}
	FrontRecords(run, &live)

	var replay recordLog
	ReplayParetoRecords(run, &replay)

	if len(live.recs) != len(replay.recs) {
		t.Fatalf("live %d records, replay %d", len(live.recs), len(replay.recs))
	}
	for i := range live.recs {
		a, _ := json.Marshal(live.recs[i])
		b, _ := json.Marshal(replay.recs[i])
		if string(a) != string(b) {
			t.Fatalf("record %d diverged:\nlive   %s\nreplay %s", i, a, b)
		}
	}
	// Front records must continue the generation sequence monotonically.
	lastGen := -1
	for _, rec := range replay.recs {
		if rec.Generation <= lastGen {
			t.Fatalf("generation sequence not monotonic at %d (prev %d, workload %s)", rec.Generation, lastGen, rec.Workload)
		}
		lastGen = rec.Generation
	}
}

type recordLog struct{ recs []hwsim.Record }

func (l *recordLog) Record(r hwsim.Record) { l.recs = append(l.recs, r) }

// TestResolveObjectivesRejects exercises the validation paths.
func TestResolveObjectivesRejects(t *testing.T) {
	for _, bad := range [][]string{
		nil,
		{"fitness"},
		{"fitness", "nope"},
		{"fitness", "fitness"},
	} {
		if _, err := ResolveObjectives(bad); err == nil {
			t.Errorf("ResolveObjectives(%v) accepted", bad)
		}
	}
	if _, err := ResolveObjectives([]string{"genes", "energy"}); err != nil {
		t.Errorf("valid subset rejected: %v", err)
	}
}
