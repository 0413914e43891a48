package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/hw/adam"
	"repro/internal/hw/energy"
	"repro/internal/hw/soc"
	"repro/internal/neat"
	"repro/internal/network"
	"repro/internal/trace"
)

// The evolve-ram workload is the genesys CLI's closed loop: core.New
// with the SoC model in the loop on alien-ram at the paper's population
// of 150, default parallelism. Reproduction, ADAM job planning and
// evaluation each take a large share of a generation here, and the
// serve and store layers do nothing, so an epoch or planning change
// shows here and must not move the daemon workloads.
const (
	ramWorkload = "alien-ram"
	ramPop      = 150
	// lineageGens is the number of timed generations per lineage, after
	// the warm-up generation 0 that belongs to set-up.
	lineageGens = 20
	// minLineages independent lineages give 100 timed generations, the
	// fewest from which a p90 has ten samples beyond it, and five
	// samples for each per-cycle median.
	minLineages = 5
)

// defaultSeed is the seed the pinned outputs below were produced from.
const defaultSeed = 1

// Pinned outputs of lineage 0 for the default seed: the simulated SoC
// totals over its timed generations and the SHA-256 of its final
// population (Population.Save bytes). A change that alters them changes
// what the system computes, not only how fast.
const (
	pinSimCycles   = int64(1005984)
	pinSimEnergyPJ = 1.26943845355e+09
	pinPopSHA256   = "18ec7a353e0d60bbfb01dca00fc2f858c84abdeb617df792469af45d9c6f77e9"
)

// lineageSeed derives lineage i's evolution seed from the run seed.
func lineageSeed(seed uint64, i int) uint64 {
	return splitmix(seed*0x100 + uint64(i) + 0x5EED)
}

// lineage is one untraced closed-loop run.
type lineage struct {
	setup   time.Duration
	gens    []time.Duration
	reports []soc.GenerationReport
	popSum  string
	// before is the population saved just before the last generation,
	// for the replay check.
	before []byte
}

func runEvolveRAM(cfg config, r *report) error {
	n := max(minLineages, minLineages*cfg.seconds/baseSeconds)
	var log cycleLog
	var gens []float64
	var untraced []lineage
	for i := 0; i < n; i++ {
		log.begin()
		seed := lineageSeed(cfg.seed, i)
		l, err := runLineage(seed, i == n-1)
		if err != nil {
			return fmt.Errorf("lineage %d: %w", i, err)
		}
		r.attempted += len(l.gens)
		var spent time.Duration
		for _, d := range l.gens {
			gens = append(gens, ms(d))
			spent += d
		}
		log.end(l.setup, len(l.gens), spent)
		if i == 0 && cfg.seed == defaultSeed {
			checkPins(r, l)
		}
		if i == n-1 {
			checkReplay(r, seed, l)
		}
		l.before = nil
		untraced = append(untraced, l)
	}
	p50, err := percentile(gens, 50)
	if err != nil {
		return err
	}
	p90, err := percentile(gens, 90)
	if err != nil {
		return err
	}
	log.report(r)
	r.set("latency_ms_p50", p50)
	r.set("latency_ms_p90", p90)
	if !cfg.traced {
		return nil
	}

	// The traced run repeats every lineage through the public calls
	// core.System.RunGeneration and evolve.Runner.Step make, timing each
	// layer, and must reproduce the untraced outputs exactly.
	var sum spans
	count := 0
	for i, u := range untraced {
		tl, err := runLineageTraced(lineageSeed(cfg.seed, i))
		if err != nil {
			return fmt.Errorf("traced lineage %d: %w", i, err)
		}
		if tl.popSum != u.popSum {
			r.fail("lineage %d: traced final population %s, untraced %s", i, tl.popSum, u.popSum)
		}
		if !reflect.DeepEqual(tl.reports, u.reports) {
			r.fail("lineage %d: traced SoC reports differ from the untraced run", i)
		}
		for _, s := range tl.gens {
			sum.add(s)
			count++
		}
		runtime.GC()
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(count) }
	r.set("core.gen_ms_per_gen", per(sum.gen))
	r.set("core.plan_ms_per_gen", per(sum.plan))
	r.set("trace_overhead_pct", 100*(1-(float64(count)/sum.gen.Seconds())/r.values["throughput_per_s"]))
	r.set("evolve.evaluate_ms_per_gen", per(sum.evaluate))
	r.set("evolve.env_steps_per_gen", float64(sum.envSteps)/float64(count))
	r.set("evolve.macs_per_gen", float64(sum.macs)/float64(count))
	r.set("neat.epoch_ms_per_gen", per(sum.epoch))
	r.set("neat.speciate_ms_per_gen", per(sum.speciate))
	r.set("neat.reproduce_ms_per_gen", per(sum.epoch-sum.speciate))
	r.set("neat.epoch_alloc_mb_per_gen", float64(sum.epochAlloc)/1e6/float64(count))
	r.set("soc.account_ms_per_gen", per(sum.account))
	r.set("soc.sim_ms_per_gen", sum.simSeconds*1e3/float64(count))
	r.set("soc.sim_uj_per_gen", sum.simEnergyPJ/1e6/float64(count))
	return nil
}

// runLineage runs one lineage through core.System exactly as the
// genesys CLI does. Set-up is core.New plus generation 0. With keep it
// also saves the population before the last generation.
func runLineage(seed uint64, keep bool) (lineage, error) {
	var l lineage
	start := cpuClock()
	sys, err := core.New(core.Config{Workload: ramWorkload, Seed: seed, Population: ramPop, HardwareInLoop: true})
	if err != nil {
		return l, err
	}
	if _, err := sys.RunGeneration(); err != nil {
		return l, err
	}
	l.setup = cpuClock() - start
	for g := 0; g < lineageGens; g++ {
		if keep && g == lineageGens-1 {
			var buf bytes.Buffer
			if err := sys.Runner().Pop.Save(&buf); err != nil {
				return l, err
			}
			l.before = buf.Bytes()
		}
		t := cpuClock()
		res, err := sys.RunGeneration()
		l.gens = append(l.gens, cpuClock()-t)
		if err != nil {
			return l, err
		}
		l.reports = append(l.reports, res.HW)
	}
	l.popSum, err = popSHA(sys.Runner().Pop)
	return l, err
}

// checkPins compares lineage 0 of the default seed with the pinned
// outputs.
func checkPins(r *report, l lineage) {
	var cycles int64
	var energy float64
	for _, rep := range l.reports {
		cycles += rep.TotalCycles
		energy += rep.TotalEnergyPJ
	}
	if cycles != pinSimCycles || energy != pinSimEnergyPJ || l.popSum != pinPopSHA256 {
		r.fail("default seed: SoC %d cycles %v pJ population %s, pinned %d cycles %v pJ population %s",
			cycles, energy, l.popSum, pinSimCycles, pinSimEnergyPJ, pinPopSHA256)
	}
}

// checkReplay restores the population saved before the lineage's last
// generation into a fresh runner, replays that generation through the
// traced path, and requires the same population and SoC report: the
// checkpoint, the traced path and the loop must agree for every seed.
func checkReplay(r *report, seed uint64, l lineage) {
	tl, err := newTracedLineage(seed)
	if err == nil {
		err = tl.runner.RestoreFrom(bytes.NewReader(l.before))
	}
	var s genSpans
	if err == nil {
		s, err = tl.step()
	}
	var sum string
	if err == nil {
		sum, err = popSHA(tl.runner.Pop)
	}
	switch {
	case err != nil:
		r.fail("replay of the last generation: %v", err)
	case sum != l.popSum:
		r.fail("replay of the last generation: population %s, loop %s", sum, l.popSum)
	case !reflect.DeepEqual(s.report, l.reports[len(l.reports)-1]):
		r.fail("replay of the last generation: SoC report differs from the loop's")
	}
}

// popSHA is the hex SHA-256 of the population's checkpoint bytes.
func popSHA(p *neat.Population) (string, error) {
	h := sha256.New()
	if err := p.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// tracedLineage holds the pieces core.New wires together, built from
// their public constructors so each layer's call can be timed.
type tracedLineage struct {
	runner *evolve.Runner
	trace  *trace.Trace
	chip   *soc.SoC

	popSum  string
	gens    []genSpans
	reports []soc.GenerationReport
}

func newTracedLineage(seed uint64) (*tracedLineage, error) {
	ncfg := neat.DefaultConfig(1, 1)
	ncfg.PopulationSize = ramPop
	r, err := evolve.NewRunner(ramWorkload, ncfg, seed)
	if err != nil {
		return nil, err
	}
	tl := &tracedLineage{runner: r, trace: &trace.Trace{}, chip: soc.New(energy.DefaultSoC())}
	r.SetRecorder(tl.trace)
	return tl, nil
}

func runLineageTraced(seed uint64) (*tracedLineage, error) {
	tl, err := newTracedLineage(seed)
	if err != nil {
		return nil, err
	}
	if _, err := tl.step(); err != nil { // generation 0, the warm-up
		return nil, err
	}
	for g := 0; g < lineageGens; g++ {
		s, err := tl.step()
		if err != nil {
			return nil, err
		}
		tl.gens = append(tl.gens, s)
		tl.reports = append(tl.reports, s.report)
	}
	tl.popSum, err = popSHA(tl.runner.Pop)
	return tl, err
}

// genSpans is one traced generation: its time and each layer's
// share of it.
type genSpans struct {
	gen, plan, evaluate, epoch, speciate, account time.Duration
	envSteps, macs                                int64
	epochAlloc                                    uint64
	report                                        soc.GenerationReport
}

// spans sums genSpans over generations.
type spans struct {
	genSpans
	simSeconds, simEnergyPJ float64
}

func (s *spans) add(g genSpans) {
	s.gen += g.gen
	s.plan += g.plan
	s.evaluate += g.evaluate
	s.epoch += g.epoch
	s.speciate += g.speciate
	s.account += g.account
	s.envSteps += g.envSteps
	s.macs += g.macs
	s.epochAlloc += g.epochAlloc
	s.simSeconds += g.report.TotalSeconds
	s.simEnergyPJ += g.report.TotalEnergyPJ
}

// step is one generation of core.System.RunGeneration with
// Runner.Step inlined, each layer's public call timed on its own.
func (tl *tracedLineage) step() (genSpans, error) {
	var s genSpans
	r := tl.runner
	start := cpuClock()

	// core: ADAM job planning for the genomes evaluated this generation.
	footprint := r.Pop.FootprintBytes()
	jobs := make([]adam.Job, 0, len(r.Pop.Genomes))
	for _, g := range r.Pop.Genomes {
		n, err := network.New(g)
		if err != nil {
			return s, err
		}
		jobs = append(jobs, adam.Job{Plan: n.BuildPlan(false)})
	}
	t := cpuClock()
	s.plan = t - start

	// evolve: evaluation.
	envSteps, macs, _, err := r.EvaluateGeneration(context.Background())
	if err != nil {
		return s, err
	}
	s.envSteps, s.macs = envSteps, macs
	s.evaluate = cpuClock() - t

	// neat: the epoch, skipped once the task is solved, as Step does.
	if r.Pop.Best().Fitness < r.Workload.Target {
		r.Pop.EpochParallelism = runtime.GOMAXPROCS(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t = cpuClock()
		repro, err := r.Pop.Epoch()
		s.epoch = cpuClock() - t
		runtime.ReadMemStats(&after)
		if err != nil {
			return s, err
		}
		s.speciate = repro.SpeciateDur
		s.epochAlloc = after.TotalAlloc - before.TotalAlloc
	}

	// hw/soc: charge each genome its mean episode length on the chip.
	t = cpuClock()
	steps := 1
	if len(jobs) > 0 && envSteps > 0 {
		steps = max(1, int(envSteps)/len(jobs))
	}
	for i := range jobs {
		jobs[i].Steps = steps
	}
	tl.chip.Reset()
	s.report = tl.chip.RunGeneration(jobs, tl.trace.Last(), footprint)
	s.account = cpuClock() - t
	s.gen = cpuClock() - start
	return s, nil
}
