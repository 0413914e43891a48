package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"repro/internal/evolve"
)

// This file is the island-model worker protocol: four HTTP/JSON
// endpoints a worker mounts (WorkerAPI) and the coordinator-side
// client + segment loop that drives them (RunDistributed). The
// protocol is session-oriented — a coordinator opens one session per
// worker holding that worker's island shard, then alternates step
// (advance to the next migration barrier, optionally injecting the
// previous barrier's migrants first) until the run solves or exhausts
// its budget, gathers results, and closes. Workers step their islands
// with evolve.IslandGroup, so the distributed run and the
// single-process RunIslands reference execute the identical code on
// identical seeds — byte-identical results by construction.

// islandOpenReq opens a session evolving a shard of a run's islands.
type islandOpenReq struct {
	Session string         `json:"session"`
	Spec    evolve.RunSpec `json:"spec"`
	Islands []int          `json:"islands"`
}

// islandStepReq advances a session to the target generation. Plan,
// when present, is the migration plan of the previous barrier and is
// injected before stepping.
type islandStepReq struct {
	Session string                  `json:"session"`
	Target  int                     `json:"target"`
	Plan    map[int]evolve.Champion `json:"plan,omitempty"`
}

// islandStepReply carries the shard's champions at the barrier.
type islandStepReply struct {
	Champions []evolve.Champion `json:"champions"`
	Solved    bool              `json:"solved"`
}

// islandResultReply carries the shard's finished islands.
type islandResultReply struct {
	Results []evolve.IslandResult `json:"results"`
}

type sessionReq struct {
	Session string `json:"session"`
}

// WorkerAPI hosts island sessions on a worker process. Mount with
// Routes on the worker's mux.
type WorkerAPI struct {
	mu       sync.Mutex
	sessions map[string]*evolve.IslandGroup
}

// NewWorkerAPI builds an empty session host.
func NewWorkerAPI() *WorkerAPI {
	return &WorkerAPI{sessions: map[string]*evolve.IslandGroup{}}
}

// Routes mounts the island endpoints on mux.
func (w *WorkerAPI) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /island/open", w.handleOpen)
	mux.HandleFunc("POST /island/step", w.handleStep)
	mux.HandleFunc("POST /island/result", w.handleResult)
	mux.HandleFunc("POST /island/close", w.handleClose)
}

// Sessions reports the live session count (worker metrics).
func (w *WorkerAPI) Sessions() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sessions)
}

func (w *WorkerAPI) handleOpen(rw http.ResponseWriter, r *http.Request) {
	var req islandOpenReq
	if !decodeJSON(rw, r, &req) {
		return
	}
	if req.Session == "" {
		httpError(rw, http.StatusBadRequest, "island: empty session id")
		return
	}
	g, err := evolve.NewIslandGroup(req.Spec, req.Islands)
	if err != nil {
		httpError(rw, http.StatusBadRequest, err.Error())
		return
	}
	w.mu.Lock()
	// Re-opening a session id replaces the old group — the coordinator
	// restarting a failed run reuses its job-scoped session id, and the
	// stale group (if any) is garbage.
	w.sessions[req.Session] = g
	w.mu.Unlock()
	writeJSON(rw, struct{}{})
}

func (w *WorkerAPI) handleStep(rw http.ResponseWriter, r *http.Request) {
	var req islandStepReq
	if !decodeJSON(rw, r, &req) {
		return
	}
	g, ok := w.lookup(req.Session)
	if !ok {
		httpError(rw, http.StatusNotFound, "island: unknown session "+req.Session)
		return
	}
	if req.Target < 1 || req.Target > g.Spec.Generations {
		httpError(rw, http.StatusBadRequest, fmt.Sprintf("island: target %d outside [1,%d]", req.Target, g.Spec.Generations))
		return
	}
	if req.Plan != nil {
		if err := g.Inject(req.Plan); err != nil {
			httpError(rw, http.StatusBadRequest, err.Error())
			return
		}
	}
	// The step computes on the request goroutine under the request
	// context: a coordinator that dies (or re-dispatches) disconnects,
	// cancelling the evolution mid-generation.
	champs, solved, err := g.Step(r.Context(), req.Target)
	if err != nil {
		httpError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(rw, islandStepReply{Champions: champs, Solved: solved})
}

func (w *WorkerAPI) handleResult(rw http.ResponseWriter, r *http.Request) {
	var req sessionReq
	if !decodeJSON(rw, r, &req) {
		return
	}
	g, ok := w.lookup(req.Session)
	if !ok {
		httpError(rw, http.StatusNotFound, "island: unknown session "+req.Session)
		return
	}
	writeJSON(rw, islandResultReply{Results: g.Results()})
}

func (w *WorkerAPI) handleClose(rw http.ResponseWriter, r *http.Request) {
	var req sessionReq
	if !decodeJSON(rw, r, &req) {
		return
	}
	w.mu.Lock()
	delete(w.sessions, req.Session)
	w.mu.Unlock()
	writeJSON(rw, struct{}{})
}

func (w *WorkerAPI) lookup(session string) (*evolve.IslandGroup, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	g, ok := w.sessions[session]
	return g, ok
}

func decodeJSON(rw http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(v); err != nil {
		httpError(rw, http.StatusBadRequest, "island: bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(v)
}

func httpError(rw http.ResponseWriter, code int, msg string) {
	http.Error(rw, msg, code)
}

// IslandClient drives one worker's island endpoints.
type IslandClient struct {
	Base string // worker base URL, e.g. http://127.0.0.1:9001
	HTTP *http.Client
}

func (c *IslandClient) post(ctx context.Context, path string, req, reply any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("%s%s: %s: %s", c.Base, path, resp.Status, bytes.TrimSpace(msg))
	}
	if reply == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// Open starts a session evolving islands of spec on the worker.
func (c *IslandClient) Open(ctx context.Context, session string, spec evolve.RunSpec, islands []int) error {
	return c.post(ctx, "/island/open", islandOpenReq{Session: session, Spec: spec, Islands: islands}, nil)
}

// Step advances the session to target, injecting plan first when set.
func (c *IslandClient) Step(ctx context.Context, session string, target int, plan map[int]evolve.Champion) ([]evolve.Champion, bool, error) {
	var reply islandStepReply
	if err := c.post(ctx, "/island/step", islandStepReq{Session: session, Target: target, Plan: plan}, &reply); err != nil {
		return nil, false, err
	}
	return reply.Champions, reply.Solved, nil
}

// Results gathers the session's finished islands.
func (c *IslandClient) Results(ctx context.Context, session string) ([]evolve.IslandResult, error) {
	var reply islandResultReply
	if err := c.post(ctx, "/island/result", sessionReq{Session: session}, &reply); err != nil {
		return nil, err
	}
	return reply.Results, nil
}

// Close tears the session down (best-effort cleanup).
func (c *IslandClient) Close(ctx context.Context, session string) error {
	return c.post(ctx, "/island/close", sessionReq{Session: session}, nil)
}

// ShardError attributes a distributed-run failure to the worker whose
// shard failed, so the dispatch layer can mark that member dead before
// retrying the run on the survivors.
type ShardError struct {
	Shard  int
	Member Member
	Err    error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d on %s (%s): %v", e.Shard, e.Member.ID, e.Member.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// PartitionIslands deals islands round-robin across shards: shard k
// owns islands k, k+shards, k+2·shards, … Deterministic, balanced to
// within one island.
func PartitionIslands(islands, shards int) [][]int {
	if shards > islands {
		shards = islands
	}
	parts := make([][]int, shards)
	for i := 0; i < islands; i++ {
		parts[i%shards] = append(parts[i%shards], i)
	}
	return parts
}

// RunDistributed executes one island-model run across a worker fleet:
// islands are partitioned over the workers (sorted by id, so the
// sharding is a pure function of the member set), each worker evolves
// its shard through an island session, and evolve.SegmentLoop drives
// the barriers with a step that fans out to every shard — shipping
// each worker the previous barrier's migrants and gathering its
// champions. Only where islands execute differs from evolve.RunIslands,
// so results are byte-identical to the reference.
//
// Any RPC failure aborts the whole run (sessions are closed
// best-effort) and surfaces the error; the caller owns retry — an
// island run has no cross-barrier checkpoint, so a worker death means
// restarting the run on the surviving fleet (still deterministic:
// the result does not depend on the fleet shape).
func RunDistributed(ctx context.Context, spec evolve.RunSpec, session string, workers []Member, httpc *http.Client) (*evolve.IslandRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("island: no workers")
	}
	ws := append([]Member(nil), workers...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	parts := PartitionIslands(spec.Islands, len(ws))
	clients := make([]*IslandClient, len(parts))
	for k := range parts {
		clients[k] = &IslandClient{Base: ws[k].Addr, HTTP: httpc}
	}
	defer func() {
		// Best-effort teardown, detached from the (possibly cancelled)
		// run context so close still reaches live workers.
		for _, c := range clients {
			c.Close(context.WithoutCancel(ctx), session)
		}
	}()

	for k, c := range clients {
		if err := c.Open(ctx, session, spec, parts[k]); err != nil {
			return nil, &ShardError{Shard: k, Member: ws[k], Err: err}
		}
	}

	// fanOut runs one call per shard concurrently — shards computing in
	// parallel is the throughput win — and joins the first error.
	fanOut := func(f func(k int, c *IslandClient) error) error {
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for k, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = f(k, c)
			}()
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				return &ShardError{Shard: k, Member: ws[k], Err: err}
			}
		}
		return nil
	}

	err := evolve.SegmentLoop(spec, func(target int, plan map[int]evolve.Champion) ([]evolve.Champion, bool, error) {
		var mu sync.Mutex
		var champs []evolve.Champion
		solved := false
		err := fanOut(func(k int, c *IslandClient) error {
			cs, s, err := c.Step(ctx, session, target, plan)
			mu.Lock()
			champs = append(champs, cs...)
			solved = solved || s
			mu.Unlock()
			return err
		})
		return champs, solved, err
	})
	if err != nil {
		return nil, err
	}

	results := make([][]evolve.IslandResult, len(clients))
	if err := fanOut(func(k int, c *IslandClient) error {
		rs, err := c.Results(ctx, session)
		if err != nil {
			return err
		}
		results[k] = rs
		return nil
	}); err != nil {
		return nil, err
	}
	var all []evolve.IslandResult
	for _, rs := range results {
		all = append(all, rs...)
	}
	if len(all) != spec.Islands {
		return nil, fmt.Errorf("island: gathered %d of %d islands", len(all), spec.Islands)
	}
	return evolve.AssembleRun(spec, all), nil
}
