package evolve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// parentIslandBody is an island spec as the /island/open body carried
// it before RunSpec: the untagged IslandSpec fields, in their order.
const parentIslandBody = `{"Workload":"cartpole","Population":32,"Generations":8,"Islands":2,"MigrationEvery":3,"Seed":42,"Parallelism":0,"BatchWidth":0}`

// TestRunSpecValidate is the one table of run-spec rules: every kind,
// every contradiction, and the size bounds, which are checked without
// building anything.
func TestRunSpecValidate(t *testing.T) {
	scalar := RunSpec{Workload: "cartpole", Population: 16, Generations: 4, Seed: 1}
	island := islandSpec()
	pareto := scalar
	pareto.Objectives = DefaultParetoObjectives()
	with := func(s RunSpec, edit func(*RunSpec)) RunSpec {
		s.Objectives = append([]string(nil), s.Objectives...)
		edit(&s)
		return s
	}
	cases := []struct {
		name string
		spec RunSpec
		// body, when set, is decoded into the spec instead.
		body string
		ok   bool
	}{
		{name: "scalar", spec: scalar, ok: true},
		{name: "island", spec: island, ok: true},
		{name: "pareto", spec: pareto, ok: true},
		{name: "at-bounds", spec: with(scalar, func(s *RunSpec) { s.Population, s.Generations = MaxPopulation, MaxGenerations }), ok: true},
		{name: "parent-island-body", body: parentIslandBody, ok: true},

		{name: "unknown-workload", spec: with(scalar, func(s *RunSpec) { s.Workload = "nope" })},
		{name: "island-unknown-workload", spec: with(island, func(s *RunSpec) { s.Workload = "no-such" })},
		{name: "population-1", spec: with(scalar, func(s *RunSpec) { s.Population = 1 })},
		{name: "generations-0", spec: with(scalar, func(s *RunSpec) { s.Generations = 0 })},
		{name: "population-over-bound", spec: with(scalar, func(s *RunSpec) { s.Population = MaxPopulation + 1 })},
		{name: "generations-over-bound", spec: with(scalar, func(s *RunSpec) { s.Generations = MaxGenerations + 1 })},
		{name: "islands-over-bound", spec: with(island, func(s *RunSpec) { s.Islands, s.Population = MaxIslands+1, 2*(MaxIslands+1) })},
		{name: "islands-negative", spec: with(scalar, func(s *RunSpec) { s.Islands = -1 })},
		{name: "migration-without-islands", spec: with(scalar, func(s *RunSpec) { s.MigrationEvery = 3 })},
		{name: "one-island", spec: with(island, func(s *RunSpec) { s.Islands = 1 })},
		{name: "migration-every-0", spec: with(island, func(s *RunSpec) { s.MigrationEvery = 0 })},
		{name: "population-not-divisible", spec: with(island, func(s *RunSpec) { s.Population = 33 })},
		{name: "population-16-over-3-islands", spec: with(island, func(s *RunSpec) { s.Population, s.Islands = 16, 3 })},
		{name: "islands-and-objectives", spec: with(pareto, func(s *RunSpec) { s.Islands, s.MigrationEvery = 2, 5 })},
		{name: "unknown-objective", spec: with(pareto, func(s *RunSpec) { s.Objectives = []string{"fitness", "unobtainium"} })},
		{name: "single-objective", spec: with(pareto, func(s *RunSpec) { s.Objectives = []string{"fitness"} })},
		{name: "duplicate-objective", spec: with(pareto, func(s *RunSpec) { s.Objectives = []string{"fitness", "fitness"} })},
		{name: "empty-objective", spec: with(pareto, func(s *RunSpec) { s.Objectives = []string{"fitness", ""} })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			if tc.body != "" {
				if err := json.Unmarshal([]byte(tc.body), &spec); err != nil {
					t.Fatal(err)
				}
			}
			if err := spec.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", spec, err, tc.ok)
			}
			if tc.body != "" {
				sameIslandGroup(t, tc.body, spec, island)
			}
		})
	}
}

// sameIslandGroup checks that a spec decoded from a parent-format open
// body builds the same group as the spec literal, and that the spec
// literal still encodes to exactly that body.
func sameIslandGroup(t *testing.T, body string, decoded, want RunSpec) {
	t.Helper()
	if raw, err := json.Marshal(want); err != nil || string(raw) != body {
		t.Fatalf("island spec encodes as %s (err %v), want the parent body %s", raw, err, body)
	}
	ga, err := NewIslandGroup(decoded, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := NewIslandGroup(want, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := range ga.Runners {
		var a, b bytes.Buffer
		if err := ga.Runners[k].Pop.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := gb.Runners[k].Pop.Save(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() || !ga.Runners[k].trackChampion {
			t.Fatalf("island %d: decoded group differs from the literal's", ga.Islands[k])
		}
	}
}
