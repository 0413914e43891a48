package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evolve"
	"repro/internal/experiments"
	"repro/internal/neat"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
)

const (
	// clients is the number of closed-loop clients: each submits its
	// next job only after the previous one's terminal event.
	clients = 2
	// cycles is how many times a serve run boots the daemon, warms it up
	// and serves its share of the measured jobs; setup_s is the median
	// boot-and-warm-up time. A short daemon life also bounds memory, as
	// the scheduler keeps every job it has admitted.
	cycles = 5
	// freshJobs sizes serve-fresh: 180 jobs, 36 per cycle, give every
	// kind at least 20 samples, enough for a per-kind p50.
	freshJobs = 180
	// Each serve-replay cycle submits replaySpecs distinct specs
	// replayRounds times each: the first submission of a spec after a
	// boot is a store hit, the rest are memory hits.
	replaySpecs  = 45
	replayRounds = 20
)

// daemon is one in-process genesysd as cmd/genesysd wires it for
// `genesysd -store-dir DIR` at its default flags, serving on loopback.
type daemon struct {
	sched  *serve.Scheduler
	store  *store.Store
	srv    *http.Server
	served chan error
	base   string
	http   *http.Client
}

func startDaemon(root string) (*daemon, error) {
	st, err := store.Open(store.Config{Root: root, CheckpointMaxAge: 24 * time.Hour})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sched := serve.NewScheduler(serve.Config{MaxRunning: runtime.NumCPU(), MaxQueue: 16, Store: st})
	sched.Recover()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Drain(0)
		return nil, err
	}
	d := &daemon{
		sched:  sched,
		store:  st,
		srv:    &http.Server{Handler: serve.NewServer(sched)},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the scheduler and closes the server, waiting for both.
func (d *daemon) stop() {
	d.sched.Drain(time.Minute)
	d.srv.Close()
	<-d.served
	d.http.CloseIdleConnections()
}

// bootAndWarm boots a daemon on root with an empty run cache and runs
// one warm-up job per kind: the set-up a restarted daemon pays before
// it serves at speed.
func bootAndWarm(root string, sz size) (*daemon, error) {
	experiments.ResetCaches()
	d, err := startDaemon(root)
	if err != nil {
		return nil, err
	}
	for _, j := range warmupJobs(sz) {
		o, err := d.run(context.Background(), j)
		if err == nil && o.status.State != serve.StateDone {
			err = fmt.Errorf("state %s: %s", o.status.State, o.status.Error)
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up %s job: %w", kindNames[j.kind], err)
		}
	}
	return d, nil
}

// outcome is one job as its client saw it.
type outcome struct {
	kind                         kind
	total, submit, first, stream time.Duration
	records                      int
	// sum is the SHA-256 of the job's generation events, in order.
	sum    string
	status serve.Status
	err    error
}

func (o outcome) computed() bool { return !o.status.Shared && !o.status.Stored }

// run submits one job and follows its event stream to the terminal
// event.
func (d *daemon) run(ctx context.Context, j job) (outcome, error) {
	o := outcome{kind: j.kind}
	c := serve.Client{Base: d.base, HTTP: d.http}
	start := cpuClock()
	st, err := c.Submit(ctx, j.spec)
	o.submit = cpuClock() - start
	if err != nil {
		return o, fmt.Errorf("submit: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/jobs/"+st.ID+"/events", nil)
	if err != nil {
		return o, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return o, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return o, fmt.Errorf("events: %s", resp.Status)
	}
	h := sha256.New()
	var firstAt time.Duration
	var event string
	var data []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event:")):
			event = string(bytes.TrimSpace(line[len("event:"):]))
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data, bytes.TrimSpace(line[len("data:"):])...)
		case len(line) == 0:
			switch event {
			case "generation":
				now := cpuClock()
				if o.records == 0 {
					firstAt = now
					o.first = now - start
				}
				o.stream = now - firstAt
				o.records++
				h.Write(data)
				h.Write([]byte{'\n'})
			case "done":
				o.total = cpuClock() - start
				o.sum = hex.EncodeToString(h.Sum(nil))
				return o, json.Unmarshal(data, &o.status)
			}
			event, data = "", data[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return o, err
	}
	return o, fmt.Errorf("job %s: stream ended without a terminal event", st.ID)
}

// drive runs the jobs from the closed-loop clients and returns their
// outcomes in list order and the time the list took.
func (d *daemon) drive(jobs []job) ([]outcome, time.Duration) {
	outs := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := cpuClock()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				outs[i], outs[i].err = d.run(context.Background(), jobs[i])
			}
		}()
	}
	wg.Wait()
	return outs, cpuClock() - start
}

// done counts the jobs of a cycle that ended done.
func done(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.err == nil && o.status.State == serve.StateDone {
			n++
		}
	}
	return n
}

// tally counts the operations and failed jobs, and reports the job
// latency percentiles over every cycle.
func tally(r *report, outs []outcome) error {
	var lat []float64
	for i, o := range outs {
		r.attempted++
		switch {
		case o.err != nil:
			r.fail("job %d (%s): %v", i, kindNames[o.kind], o.err)
		case o.status.State != serve.StateDone:
			r.fail("job %d (%s): ended %s: %s", i, kindNames[o.kind], o.status.State, o.status.Error)
		default:
			lat = append(lat, ms(o.total))
		}
	}
	p50, err := percentile(lat, 50)
	if err != nil {
		return err
	}
	p90, err := percentile(lat, 90)
	if err != nil {
		return err
	}
	r.set("latency_ms_p50", p50)
	r.set("latency_ms_p90", p90)
	return nil
}

// traceServe reports the serve and experiments layers' per-layer
// metrics from the client-side spans and the jobs' status stamps.
func traceServe(r *report, outs []outcome) error {
	var submit, first, stream []float64
	byKind := make([][]float64, numKinds)
	var queue, run float64
	var records int
	var streamTime time.Duration
	var computed, stored, shared int
	for _, o := range outs {
		submit = append(submit, ms(o.submit))
		first = append(first, ms(o.first))
		stream = append(stream, ms(o.stream))
		byKind[o.kind] = append(byKind[o.kind], ms(o.total))
		queue += float64(o.status.StartedMs - o.status.CreatedMs)
		run += float64(o.status.FinishedMs - o.status.StartedMs)
		records += o.records
		streamTime += o.stream
		switch {
		case o.status.Stored:
			stored++
		case o.status.Shared:
			shared++
		default:
			computed++
		}
	}
	n := float64(len(outs))
	for name, samples := range map[string][]float64{
		"serve.submit_ms_p50":       submit,
		"serve.first_record_ms_p50": first,
		"serve.stream_ms_p50":       stream,
		"experiments.scalar_ms_p50": byKind[scalar],
		"experiments.island_ms_p50": byKind[island],
		"experiments.pareto_ms_p50": byKind[pareto],
		"experiments.ram_ms_p50":    byKind[ram],
	} {
		v, err := percentile(samples, 50)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.set(name, v)
	}
	r.set("serve.queue_ms_mean", queue/n)
	r.set("serve.run_ms_mean", run/n)
	r.set("serve.records_per_s", float64(records)/streamTime.Seconds())
	r.set("experiments.computed_jobs", float64(computed))
	r.set("experiments.store_hits", float64(stored))
	r.set("experiments.memory_hits", float64(shared))
	return nil
}

// storeKey is the store identity of a job spec.
func storeKey(sp serve.Spec) store.Key {
	return store.Key{
		Workload: sp.Workload, Population: sp.Population, Generations: sp.Generations, Seed: sp.Seed,
		Islands: sp.Islands, MigrationEvery: sp.MigrationEvery, Objectives: sp.Objectives,
	}
}

// storeProbe collects the samples of probe.
type storeProbe struct{ get, size, decode, ramDecode []float64 }

// probe times a verified Get of every job's artifact, and for single
// runs the decode the run cache performs on a store hit: NewRunner,
// RestoreFrom and trace.Parse on the bytes Get returned.
func (p *storeProbe) probe(r *report, st *store.Store, jobs []job) {
	for _, j := range jobs {
		start := cpuClock()
		art, ok := st.Get(storeKey(j.spec))
		p.get = append(p.get, ms(cpuClock()-start))
		if !ok {
			r.fail("store: no verified artifact for %s", storeKey(j.spec))
			continue
		}
		var n int
		for _, b := range art.Files {
			n += len(b)
		}
		p.size = append(p.size, float64(n)/1e6)
		if j.kind != scalar && j.kind != ram {
			continue
		}
		start = cpuClock()
		if err := decodeRun(j.spec, art); err != nil {
			r.fail("store: decode %s: %v", storeKey(j.spec), err)
			continue
		}
		p.decode = append(p.decode, ms(cpuClock()-start))
		if j.kind == ram {
			p.ramDecode = append(p.ramDecode, p.decode[len(p.decode)-1])
		}
	}
}

func (p *storeProbe) report(r *report) error {
	for name, samples := range map[string][]float64{
		"store.get_ms_p50":              p.get,
		"store.artifact_mb_p50":         p.size,
		"experiments.decode_ms_p50":     p.decode,
		"experiments.ram_decode_ms_p50": p.ramDecode,
	} {
		v, err := percentile(samples, 50)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.set(name, v)
	}
	return nil
}

// decodeRun rebuilds a single run from its artifact the way the run
// cache does on a store hit.
func decodeRun(sp serve.Spec, art *store.Artifact) error {
	cfg := neat.DefaultConfig(1, 1)
	cfg.PopulationSize = sp.Population
	rn, err := evolve.NewRunner(sp.Workload, cfg, sp.Seed)
	if err != nil {
		return err
	}
	if err := rn.RestoreFrom(bytes.NewReader(art.Files["population.json"])); err != nil {
		return err
	}
	_, err = trace.Parse(bytes.NewReader(art.Files["trace.txt"]))
	return err
}

// runServeFresh serves distinct-seed jobs that all miss the caches, so
// admission, evaluation, the Pareto sort and the store commit are all
// on the clock. Every cycle boots on a new store.
func runServeFresh(cfg config, r *report) error {
	dir, err := os.MkdirTemp(cfg.dir, "serve-fresh-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	perCycle := max(freshJobs, freshJobs*cfg.seconds/baseSeconds) / cycles
	lists := jobLists(cfg.seed, cycles, perCycle, freshSize)
	var log cycleLog
	var outs []outcome
	var puts, written int64
	var phaseNs [3]int64
	var gens int64
	var probe storeProbe
	for c := 0; c < cycles; c++ {
		log.begin()
		start := cpuClock()
		d, err := bootAndWarm(filepath.Join(dir, fmt.Sprint("store", c)), freshSize)
		if err != nil {
			return err
		}
		setup := cpuClock() - start
		part := lists[c]
		stats, phases := d.store.Stats(), d.sched.Counters().Snapshot()
		o, w := d.drive(part)
		stats2, phases2 := d.store.Stats(), d.sched.Counters().Snapshot()
		log.end(setup, done(o), w)
		outs = append(outs, o...)
		puts += stats2.Commits - stats.Commits
		written += stats2.DiskBytes - stats.DiskBytes
		for i, name := range []string{"evaluate_ns", "speciate_ns", "reproduce_ns"} {
			phaseNs[i] += phases2.Int("phases/"+name) - phases.Int("phases/"+name)
		}
		gens += phases2.Int("phases/generations") - phases.Int("phases/generations")
		if cfg.traced {
			probe.probe(r, d.store, part)
		}
		d.stop()
	}
	for i, o := range outs {
		if o.err == nil && !o.computed() {
			r.fail("job %d (%s): distinct seed was not computed", i, kindNames[o.kind])
		}
	}
	if puts != int64(len(outs)) {
		r.fail("store: %d commits for %d computed jobs", puts, len(outs))
	}
	log.report(r)
	if err := tally(r, outs); err != nil || !cfg.traced {
		return err
	}
	if err := traceServe(r, outs); err != nil {
		return err
	}
	per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(gens) }
	r.set("evolve.evaluate_ms_per_gen", per(phaseNs[0]))
	r.set("neat.speciate_ms_per_gen", per(phaseNs[1]))
	r.set("neat.reproduce_ms_per_gen", per(phaseNs[2]))
	r.set("neat.epoch_ms_per_gen", per(phaseNs[1]+phaseNs[2]))
	r.set("store.puts", float64(puts))
	r.set("store.written_mb", float64(written)/1e6)
	return probe.report(r)
}

// fillPlan is what the serve-replay child process computes.
type fillPlan struct {
	Store string       `json:"store"`
	Specs []serve.Spec `json:"specs"`
	// Out receives one stream checksum per spec, in Specs order.
	Out string `json:"out"`
}

// runFill is the child process of serve-replay's set-up: a daemon that
// computes every spec of the plan into the store, as the daemon before
// a restart did, and records each spec's record stream.
func runFill(planPath string) error {
	data, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	var plan fillPlan
	if err := json.Unmarshal(data, &plan); err != nil {
		return err
	}
	d, err := startDaemon(plan.Store)
	if err != nil {
		return err
	}
	defer d.stop()
	jobs := make([]job, len(plan.Specs))
	for i, sp := range plan.Specs {
		jobs[i] = job{spec: sp}
	}
	outs, _ := d.drive(jobs)
	sums := make([]string, len(outs))
	for i, o := range outs {
		if o.err != nil || o.status.State != serve.StateDone || !o.computed() {
			return fmt.Errorf("spec %d: state %s computed %v: %v %s", i, o.status.State, o.computed(), o.err, o.status.Error)
		}
		sums[i] = o.sum
	}
	out, err := json.Marshal(sums)
	if err != nil {
		return err
	}
	return os.WriteFile(plan.Out, out, 0o644)
}

// runServeReplay restarts the daemon on a warm store and resubmits
// specs it computed before the restart: no evolution runs, so
// admission, SSE replay and the store's read and decode path dominate.
func runServeReplay(cfg config, r *report) error {
	dir, err := os.MkdirTemp(cfg.dir, "serve-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	specs := jobLists(cfg.seed, 1, replaySpecs, replaySize)[0]
	plan := fillPlan{Store: filepath.Join(dir, "store"), Out: filepath.Join(dir, "sums.json")}
	for _, j := range append(warmupJobs(replaySize), specs...) {
		plan.Specs = append(plan.Specs, j.spec)
	}
	planPath := filepath.Join(dir, "plan.json")
	data, err := json.Marshal(plan)
	if err != nil {
		return err
	}
	if err := os.WriteFile(planPath, data, 0o644); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	child := exec.Command(exe, "-fill", planPath)
	child.Stdout, child.Stderr = os.Stderr, os.Stderr
	if err := child.Run(); err != nil {
		return fmt.Errorf("filling the store: %w", err)
	}
	data, err = os.ReadFile(plan.Out)
	if err != nil {
		return err
	}
	var sums []string
	if err := json.Unmarshal(data, &sums); err != nil {
		return err
	}
	want := map[serve.Spec]string{}
	for i, sp := range plan.Specs {
		want[sp] = sums[i]
	}

	rounds := max(replayRounds, replayRounds*cfg.seconds/baseSeconds)
	var log cycleLog
	var outs []outcome
	var probe storeProbe
	for c := 0; c < cycles; c++ {
		log.begin()
		start := cpuClock()
		d, err := bootAndWarm(plan.Store, replaySize)
		if err != nil {
			return err
		}
		setup := cpuClock() - start
		// Every spec once, the store hits, then the memory hits, each
		// part in its own shuffled order: clients come back for their
		// results after the restart, then keep asking. Keeping the
		// restores apart stops a 250 ms RAM decode from sharing the
		// core with, and stretching, a random share of the
		// millisecond memory hits.
		jobs := append(make([]job, 0, len(specs)*rounds), specs...)
		shuffle(cfg.seed+uint64(c), len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		for i := 1; i < rounds; i++ {
			jobs = append(jobs, specs...)
		}
		hits := jobs[len(specs):]
		shuffle(cfg.seed+uint64(c)<<32, len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
		o, w := d.drive(jobs)
		log.end(setup, done(o), w)
		outs = append(outs, o...)
		for i, o := range o {
			if o.err != nil || o.status.State != serve.StateDone {
				continue // counted by tally
			}
			if o.sum != want[jobs[i].spec] {
				r.fail("cycle %d job %d (%s): replayed stream differs from the computed one", c, i, kindNames[o.kind])
			}
			if o.computed() {
				r.fail("cycle %d job %d (%s): computed on a warm store", c, i, kindNames[o.kind])
			}
		}
		if n := experiments.EvolutionsExecuted(); n != 0 {
			r.fail("cycle %d: %d evolutions executed on a warm store", c, n)
		}
		if cfg.traced {
			probe.probe(r, d.store, specs)
		}
		d.stop()
	}
	log.report(r)
	if err := tally(r, outs); err != nil || !cfg.traced {
		return err
	}
	if err := traceServe(r, outs); err != nil {
		return err
	}
	return probe.report(r)
}
