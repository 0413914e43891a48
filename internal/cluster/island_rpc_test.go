package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/evolve"
)

// tinySpec is the island session the RPC tests open: two islands of two
// genomes, one generation.
var tinySpec = evolve.RunSpec{Workload: "cartpole", Population: 4, Generations: 1, Islands: 2, MigrationEvery: 1, Seed: 9}

// post sends body to one of w's island endpoints and returns the
// status code. A handler panic propagates and fails the test.
func post(w *WorkerAPI, path string, body []byte) int {
	mux := http.NewServeMux()
	w.Routes(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestIslandOpenRejectsOverBoundSpec: /island/open refuses a spec over
// the run-size bounds with 400 before building any island, so the
// values are never run.
func TestIslandOpenRejectsOverBoundSpec(t *testing.T) {
	w := NewWorkerAPI()
	over := []evolve.RunSpec{tinySpec, tinySpec, tinySpec}
	over[0].Workload, over[0].Population = "alien-ram", 2*(evolve.MaxPopulation/2+1)
	over[1].Generations = evolve.MaxGenerations + 1
	over[2].Islands, over[2].Population = evolve.MaxIslands+1, 2*(evolve.MaxIslands+1)
	for _, spec := range over {
		body := mustJSON(t, islandOpenReq{Session: "s", Spec: spec, Islands: []int{0}})
		if code := post(w, "/island/open", body); code != http.StatusBadRequest {
			t.Fatalf("open %+v: status %d, want 400", spec, code)
		}
	}
	if n := w.Sessions(); n != 0 {
		t.Fatalf("over-bound opens left %d sessions", n)
	}
}

// FuzzIslandStep hardens the worker's island endpoints: arbitrary
// /island/open and /island/step bodies against a tiny live session
// never panic a handler, and a malformed request — bad JSON, an
// invalid spec, an out-of-range target, a plan missing an island or
// carrying a champion that does not decode or fit the workload — is
// refused with 400 (404 for an unknown session), never a 500.
func FuzzIslandStep(f *testing.F) {
	g, err := evolve.NewIslandGroup(tinySpec, []int{0, 1})
	if err != nil {
		f.Fatal(err)
	}
	champs, _, err := g.Step(context.Background(), 1)
	if err != nil {
		f.Fatal(err)
	}
	plan, err := evolve.MigrationPlan(champs, tinySpec.Islands)
	if err != nil {
		f.Fatal(err)
	}
	open := mustJSON(f, islandOpenReq{Session: "s", Spec: tinySpec, Islands: []int{0, 1}})
	for _, seed := range []struct{ open, step string }{
		{string(open), `{"session":"s","target":1}`},
		{`{"session":"t","spec":{"Workload":"cartpole","Population":4,"Generations":1,"Islands":2,"MigrationEvery":1,"Seed":9,"Parallelism":0,"BatchWidth":0},"islands":[1]}`,
			string(mustJSON(f, islandStepReq{Session: "t", Target: 1, Plan: plan}))},
		{`{"session":"t","spec":{"Workload":"cartpole","Population":4,"Generations":1,"Islands":2,"MigrationEvery":1},"islands":[2]}`, `{"session":"s","target":2}`},
		{`{}`, string(mustJSON(f, islandStepReq{Session: "s", Target: 1, Plan: plan}))},
		{`{"session":"u"}`, `{"session":"s","target":1,"plan":{"0":{"island":1,"genome":{"id":3}}}}`},
		{`[`, `{"session":"s","target":1,"plan":{"0":{"island":1,"genome":null},"1":{"island":0,"genome":"x"}}}`},
		{``, `{"session":"s","target":0,"plan":{"x":{}}}`},
	} {
		f.Add([]byte(seed.open), []byte(seed.step))
	}
	f.Fuzz(func(t *testing.T, openBody, stepBody []byte) {
		// Keep fuzzed sessions tiny so the harness stays fast; specs over
		// the run-size bounds are TestIslandOpenRejectsOverBoundSpec's.
		var req islandOpenReq
		if json.Unmarshal(openBody, &req) == nil && (req.Spec.Population > 16 || req.Spec.Generations > 2) {
			t.Skip()
		}
		w := NewWorkerAPI()
		if code := post(w, "/island/open", open); code != http.StatusOK {
			t.Fatalf("tiny session open: status %d", code)
		}
		for _, call := range []struct {
			path string
			body []byte
		}{{"/island/open", openBody}, {"/island/step", stepBody}} {
			switch code := post(w, call.path, call.body); code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("%s %q: status %d", call.path, call.body, code)
			}
		}
	})
}
