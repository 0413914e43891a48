package main

import (
	"reflect"
	"testing"
)

func TestJobListsDeterministic(t *testing.T) {
	a := jobLists(7, 5, 36, freshSize)
	b := jobLists(7, 5, 36, freshSize)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different job lists")
	}
	if reflect.DeepEqual(a, jobLists(8, 5, 36, freshSize)) {
		t.Fatal("seeds 7 and 8 gave the same job lists")
	}
}

func TestJobListsMixAndSeeds(t *testing.T) {
	seen := map[uint64]bool{}
	for _, jobs := range jobLists(3, 2, 20, freshSize) {
		if len(jobs) != 27 {
			t.Fatalf("20 jobs rounded up to whole rounds of 9: got %d, want 27", len(jobs))
		}
		var counts [numKinds]int
		for _, j := range jobs {
			counts[j.kind]++
			if j.spec.Seed == 0 || seen[j.spec.Seed] {
				t.Fatalf("seed %d is zero or repeated", j.spec.Seed)
			}
			seen[j.spec.Seed] = true
		}
		if counts != [numKinds]int{15, 3, 3, 6} {
			t.Fatalf("kind counts %v, want 5:1:1:2", counts)
		}
	}
	for _, w := range warmupJobs(freshSize) {
		if seen[w.spec.Seed] {
			t.Fatalf("warm-up seed %d is also a measured seed", w.spec.Seed)
		}
	}
}

func TestJobSpecsValidKinds(t *testing.T) {
	for _, j := range warmupJobs(replaySize) {
		sp := j.spec
		got := map[kind]bool{
			island: sp.IsIsland(),
			pareto: sp.IsPareto(),
			ram:    sp.Workload == "alien-ram",
		}
		for k, is := range got {
			if is != (j.kind == k) {
				t.Errorf("%s job has spec %+v", kindNames[j.kind], sp)
			}
		}
	}
}
