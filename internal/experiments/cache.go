package experiments

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/evolve"
	"repro/internal/store"
)

// This file is the harness's shared evolution store. The expensive
// artifacts of the pipeline — a single evolved run, a priced
// comparison, a multi-run study — are memoized behind singleflight
// maps, so one cmd/experiments invocation performs each unique
// evolution exactly once no matter how many figures ask for it or how
// many of them are running concurrently. This is the paper's
// genome-level-reuse observation applied to the simulation layer:
// identical work is computed once and shared.
//
// Sharing is sound because a finished run is immutable: every consumer
// reads Runner.History, Pop.Genomes, and the trace; none of them write
// (resilience re-scores champions through the non-mutating
// Runner.ScoreGenome). Byte-identical outputs follow from determinism:
// an evolution run is a pure function of its key, so handing a figure
// the cached run is indistinguishable from letting it re-evolve.
//
// Every run kind — scalar, island, Pareto — is one tier below: a
// singleflight map keyed on the run's full store.Key tuple, read
// through to and written back to the persistent store when one is
// attached. The kinds differ only in their codec (persist.go,
// island.go, pareto.go).

// studyKey identifies one unique multi-run study. seed is the study
// base seed; per-run seeds derive from it via evolve.RunSeed, a
// different stream from single-run seeds, so studies and single runs
// never share entries.
type studyKey struct {
	workload    string
	population  int
	generations int
	runs        int
	seed        uint64
}

// flight is one in-progress or completed computation.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// flightMap memoizes computations with singleflight semantics: the
// first requester of a key computes, concurrent requesters of the same
// key block on that computation, later requesters get the cached
// value. A failed computation is evicted before its waiters are
// released, so a transient error (a cancelled context) does not poison
// the key forever — but its waiters share the error rather than piling
// on retries.
type flightMap[K comparable, V any] struct {
	mu       sync.Mutex
	m        map[K]*flight[V]
	computes atomic.Int64
}

// peek returns the memoized value for key only when its computation
// already completed successfully — never blocking and never computing.
// The coordinator's dispatch path uses this to answer a job from local
// memory before consulting the fleet.
func (fm *flightMap[K, V]) peek(key K) (V, bool) {
	var zero V
	fm.mu.Lock()
	f, ok := fm.m[key]
	fm.mu.Unlock()
	if !ok {
		return zero, false
	}
	select {
	case <-f.done:
		if f.err != nil {
			return zero, false
		}
		return f.val, true
	default:
		return zero, false
	}
}

// get returns the memoized value for key, computing it via compute if
// this is the key's first request.
func (fm *flightMap[K, V]) get(key K, compute func() (V, error)) (V, error) {
	fm.mu.Lock()
	if fm.m == nil {
		fm.m = map[K]*flight[V]{}
	}
	if f, ok := fm.m[key]; ok {
		fm.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	fm.m[key] = f
	fm.mu.Unlock()

	fm.computes.Add(1)
	f.val, f.err = compute()
	if f.err != nil {
		fm.mu.Lock()
		delete(fm.m, key)
		fm.mu.Unlock()
	}
	close(f.done)
	return f.val, f.err
}

// reset drops every entry and zeroes the compute counter.
func (fm *flightMap[K, V]) reset() {
	fm.mu.Lock()
	fm.m = nil
	fm.mu.Unlock()
	fm.computes.Store(0)
}

// activeStore is the attached disk tier (nil = memory-only, the
// default for CLIs and tests).
var activeStore atomic.Pointer[store.Store]

// UseStore attaches (or with nil detaches) the persistent run store
// every run tier reads through and writes back to.
func UseStore(s *store.Store) { activeStore.Store(s) }

// tier is one run kind's store-backed singleflight cache. The memory
// map stays authoritative for request coalescing; the store only
// changes what a cold miss costs — a disk read instead of an
// evolution. A run kind contributes its codec: encode renders a
// finished run as the artifact's meta and payload files, decode
// rebuilds it from a verified artifact (checking schema and key).
type tier[V any] struct {
	flightMap[store.Key, V]
	encode func(store.Key, V) (store.Meta, map[string][]byte, error)
	decode func(store.Key, *store.Artifact) (V, error)
}

// RunOutcome is the result of a shared island or Pareto request.
type RunOutcome[R any] struct {
	Run R
	// Computed is true only for the request whose computation executed.
	Computed bool
	// Stored reports the cache miss was served from the persistent
	// store (no computation ran).
	Stored bool
}

// source says how a tier request was answered.
type source int

const (
	fromMemory  source = iota // memoized, or shared with a concurrent compute
	fromStore                 // this request's miss replayed a stored artifact
	fromCompute               // this request's miss executed the run
)

// load rehydrates k from the store. Any failure degrades to a miss; an
// artifact whose verified bytes do not decode is as corrupt as a
// checksum mismatch and is quarantined so the recompute can commit a
// fresh one.
func (t *tier[V]) load(k store.Key) (V, bool) {
	var zero V
	s := activeStore.Load()
	if s == nil {
		return zero, false
	}
	art, ok := s.Get(k)
	if !ok {
		return zero, false
	}
	v, err := t.decode(k, art)
	if err != nil {
		s.QuarantineKey(k, fmt.Sprintf("decode: %v", err))
		return zero, false
	}
	return v, true
}

// commit writes a computed run to the store, best-effort: a failure
// only means the next cold process recomputes.
func (t *tier[V]) commit(k store.Key, v V) {
	s := activeStore.Load()
	if s == nil {
		return
	}
	meta, files, err := t.encode(k, v)
	if err != nil {
		return
	}
	s.Put(k, meta, files)
}

// resolve answers k from memory, then the store, then compute, and
// commits what it computes (unless the codec refuses to encode it, as
// the scalar codec does for a resumed run).
func (t *tier[V]) resolve(k store.Key, compute func() (V, error)) (V, source, error) {
	src := fromMemory
	v, err := t.get(k, func() (V, error) {
		if v, ok := t.load(k); ok {
			src = fromStore
			return v, nil
		}
		src = fromCompute
		evolutionsRun.Add(1)
		v, err := compute()
		if err == nil {
			t.commit(k, v)
		}
		return v, err
	})
	return v, src, err
}

// peek answers k from memory or the store without ever computing — the
// coordinator's store-hit proxy seam. A store hit is memoized, so
// repeated peeks of one key read disk once.
func (t *tier[V]) peek(k store.Key) (run V, stored, ok bool) {
	if v, ok := t.flightMap.peek(k); ok {
		return v, false, true
	}
	loaded, ok := t.load(k)
	if !ok {
		return loaded, false, false
	}
	v, err := t.get(k, func() (V, error) { return loaded, nil })
	return v, true, err == nil
}

// runDoc is the schema-stamped single-file payload of an island
// (islands.json) or Pareto (pareto.json) artifact.
type runDoc[R any] struct {
	Schema string `json:"schema"`
	Run    *R     `json:"run"`
}

// encodeDoc renders run as a one-file runDoc artifact.
func encodeDoc[R any](file, schema string, run *R, meta store.Meta) (store.Meta, map[string][]byte, error) {
	payload, err := json.Marshal(&runDoc[R]{Schema: schema, Run: run})
	if err != nil {
		return store.Meta{}, nil, err
	}
	return meta, map[string][]byte{file: payload}, nil
}

// decodeDoc reads a one-file runDoc artifact, rejecting any other
// schema; the caller checks the run against its key.
func decodeDoc[R any](art *store.Artifact, file, schema string) (*R, error) {
	var doc runDoc[R]
	if err := json.Unmarshal(art.Files[file], &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if doc.Schema != schema || doc.Run == nil {
		return nil, fmt.Errorf("%s: schema %q, want %q", file, doc.Schema, schema)
	}
	return doc.Run, nil
}

// The stores, in dependency order: comparisons consume runs, figures
// consume all of them.
var (
	runCache    = tier[*evolved]{encode: encodeRun, decode: decodeRun}
	islandCache = tier[*evolve.IslandRun]{encode: encodeIsland, decode: decodeIsland}
	paretoCache = tier[*evolve.ParetoRun]{encode: encodePareto, decode: decodePareto}
	studyCache  flightMap[studyKey, *evolve.Study]
	priceCache  flightMap[store.Key, *comparison]
)

// evolutionsRun counts actual evolution executions — bumped only when
// a tier really computes, not when a cache miss is served from the
// persistent store. runCache.computes keeps counting compute-closure
// invocations (the singleflight accounting its tests pin); this
// counter is the "did we pay for an evolution" ledger the durability
// proof asserts stays flat across a disk replay.
var evolutionsRun atomic.Int64

// ResetCaches drops every memoized run, study, and comparison. A CLI
// invocation never needs this; it exists for benchmarks and tests that
// measure or compare cold-cache behavior within one process.
func ResetCaches() {
	runCache.reset()
	studyCache.reset()
	priceCache.reset()
	islandCache.reset()
	paretoCache.reset()
	evolutionsRun.Store(0)
}

// evolutionsExecuted reports how many evolution computations ran since
// the last reset: tier computes plus studies (a study internally
// executes its configured number of runs, but enters the pipeline as
// one computation). Runs replayed from the persistent store are not
// executions and do not count.
func evolutionsExecuted() int64 {
	return evolutionsRun.Load() + studyCache.computes.Load()
}
