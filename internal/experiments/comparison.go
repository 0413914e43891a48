package experiments

import (
	"fmt"

	"repro/internal/es"
	"repro/internal/evolve"
	"repro/internal/hw/adam"
	"repro/internal/hw/energy"
	"repro/internal/hw/hwsim"
	"repro/internal/hw/soc"
	"repro/internal/network"
	"repro/internal/platform"
	"repro/internal/rl"
)

func init() {
	register("table2", TableII)
	register("table3", TableIII)
	register("footnote1", Footnote1)
	register("fig9a", Fig9a)
	register("fig9b", Fig9b)
	register("fig9c", Fig9c)
	register("fig9d", Fig9d)
	register("fig10ab", Fig10ab)
	register("fig10c", Fig10c)
	register("fig10d", Fig10d)
}

// newADAM builds an ADAM engine from a SoC design point.
func newADAM(cfg energy.SoCConfig) *adam.Engine {
	acfg := adam.DefaultConfig()
	acfg.Rows, acfg.Cols = cfg.ADAMRows, cfg.ADAMCols
	acfg.MACEnergyPJ = cfg.Tech.EMAC
	acfg.SRAMAccessPJ = cfg.Tech.ESRAMAccess
	return adam.New(acfg)
}

// inferenceJobs builds the ADAM job list for the run's current
// population. stepsPerGenome ≤ 0 uses the run's measured mean episode
// length.
func inferenceJobs(e *evolved, stepsPerGenome int) ([]adam.Job, error) {
	last := e.runner.Last()
	if stepsPerGenome <= 0 {
		if n := len(e.runner.Pop.Genomes); n > 0 && last.EnvSteps > 0 {
			stepsPerGenome = int(last.EnvSteps) / n
		}
		if stepsPerGenome <= 0 {
			stepsPerGenome = 1
		}
	}
	jobs := make([]adam.Job, 0, len(e.runner.Pop.Genomes))
	for _, g := range e.runner.Pop.Genomes {
		n, err := network.New(g)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, adam.Job{Plan: n.BuildPlan(false), Steps: stepsPerGenome})
	}
	return jobs, nil
}

// comparison prices one workload's last generation on every platform
// and on the GeneSys SoC model. The GeneSys side is the chip's hwsim
// counter tree: every figure reads it by registry traversal instead of
// plumbing bespoke report fields.
type comparison struct {
	workload string
	reports  map[string]platform.Report
	genesys  hwsim.Report
	soCfg    energy.SoCConfig
}

// runComparison evolves the workload and prices its last generation
// everywhere, memoized in the shared singleflight store: eight
// Fig. 9/10 panels share the same six evolution runs, and concurrent
// panels block on one pricing instead of racing to duplicate it. The
// key is the run key of the underlying evolution (run 0), so the cache
// is insensitive to option fields that do not change the run.
func runComparison(wl string, opt Options) (*comparison, error) {
	return priceCache.get(RunKey(runRequest(wl, opt, 0).RunSpec), func() (*comparison, error) {
		return runComparisonUncached(wl, opt)
	})
}

func runComparisonUncached(wl string, opt Options) (*comparison, error) {
	e, err := runWorkload(wl, opt, 0)
	if err != nil {
		return nil, err
	}
	// Price a generation that actually reproduced: a run that hits the
	// target on its final generation records no reproduction ops there.
	last := e.runner.Last()
	for i := len(e.runner.History) - 1; i >= 0; i-- {
		if st := e.runner.History[i]; st.CrossoverOps+st.MutationOps > 0 {
			last = st
			break
		}
	}
	w, err := genWorkload(e, last)
	if err != nil {
		return nil, err
	}
	c := &comparison{workload: wl, reports: map[string]platform.Report{}, soCfg: energy.DefaultSoC()}
	for _, s := range platform.TableIII() {
		c.reports[s.Legend] = s.Run(w)
	}
	jobs, err := inferenceJobs(e, 0)
	if err != nil {
		return nil, err
	}
	chip := soc.New(c.soCfg)
	chip.RunGeneration(jobs, e.trace.Last(), e.runner.Pop.FootprintBytes())
	c.genesys = chip.Snapshot()
	return c, nil
}

// genesysInferenceCycles is the SoC's evaluation-phase time: ADAM plus
// the scratchpad transfers, read from the counter tree.
func (c *comparison) genesysInferenceCycles() int64 {
	return c.genesys.Int("adam/total_cycles") +
		c.genesys.Int("scratchpad_to_adam_cycles") +
		c.genesys.Int("adam_to_scratchpad_cycles")
}

// genesysInferenceSeconds is the SoC's evaluation-phase time.
func (c *comparison) genesysInferenceSeconds() float64 {
	return c.soCfg.CyclesToSeconds(c.genesysInferenceCycles())
}

// genesysEvolutionSeconds is the SoC's reproduction-phase time.
func (c *comparison) genesysEvolutionSeconds() float64 {
	return c.soCfg.CyclesToSeconds(c.genesys.Int("eve/total_cycles"))
}

// Fig9a regenerates inference runtime per generation across the
// desktop platforms and GeneSys.
func Fig9a(opt Options) (*Result, error) {
	r := &Result{ID: "fig9a", Title: "Inference runtime per generation (seconds)"}
	t := Table{Header: []string{"workload", "CPU_a", "CPU_b", "GPU_a", "GPU_b", "GENESYS", "best-GPU/GENESYS"}}
	if err := warmComparisons(evolve.PaperSuite(), opt); err != nil {
		return nil, err
	}
	for _, wl := range evolve.PaperSuite() {
		c, err := runComparison(wl, opt)
		if err != nil {
			return nil, err
		}
		gs := c.genesysInferenceSeconds()
		bestGPU := c.reports["GPU_a"].InferenceSeconds
		if b := c.reports["GPU_b"].InferenceSeconds; b < bestGPU {
			bestGPU = b
		}
		t.Rows = append(t.Rows, []string{
			wl,
			fnum(c.reports["CPU_a"].InferenceSeconds),
			fnum(c.reports["CPU_b"].InferenceSeconds),
			fnum(c.reports["GPU_a"].InferenceSeconds),
			fnum(c.reports["GPU_b"].InferenceSeconds),
			fnum(gs),
			fnum(bestGPU / gs),
		})
		r.series(wl+":speedupVsBestGPU", bestGPU/gs)
		r.series(wl+":cpuPLPSpeedup",
			c.reports["CPU_a"].InferenceSeconds/c.reports["CPU_b"].InferenceSeconds)
	}
	t.Notes = append(t.Notes, "paper: GeneSys outperforms the best GPU by ~100× in inference")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig9b regenerates inference energy per generation across the
// embedded platforms and GeneSys.
func Fig9b(opt Options) (*Result, error) {
	r := &Result{ID: "fig9b", Title: "Inference energy per generation (joules)"}
	t := Table{Header: []string{"workload", "CPU_c", "CPU_d", "GPU_c", "GPU_d", "GENESYS", "best/GENESYS"}}
	if err := warmComparisons(evolve.PaperSuite(), opt); err != nil {
		return nil, err
	}
	for _, wl := range evolve.PaperSuite() {
		c, err := runComparison(wl, opt)
		if err != nil {
			return nil, err
		}
		gsJ := c.genesys.Float("adam/energy_pj") * 1e-12
		best := c.reports["CPU_c"].InferenceEnergyJ
		for _, l := range []string{"CPU_d", "GPU_c", "GPU_d"} {
			if v := c.reports[l].InferenceEnergyJ; v < best {
				best = v
			}
		}
		t.Rows = append(t.Rows, []string{
			wl,
			fnum(c.reports["CPU_c"].InferenceEnergyJ),
			fnum(c.reports["CPU_d"].InferenceEnergyJ),
			fnum(c.reports["GPU_c"].InferenceEnergyJ),
			fnum(c.reports["GPU_d"].InferenceEnergyJ),
			fnum(gsJ),
			fnum(best / gsJ),
		})
		r.series(wl+":efficiencyVsBest", best/gsJ)
	}
	t.Notes = append(t.Notes, "paper: ADAM contributes ~100× energy efficiency")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig9c regenerates evolution runtime per generation on the CPUs (the
// paper plots CPU_a and CPU_c) with GeneSys for reference.
func Fig9c(opt Options) (*Result, error) {
	r := &Result{ID: "fig9c", Title: "Evolution runtime per generation (seconds)"}
	t := Table{Header: []string{"workload", "CPU_a", "CPU_c", "GENESYS", "CPU_a/GENESYS"}}
	if err := warmComparisons(evolve.PaperSuite(), opt); err != nil {
		return nil, err
	}
	for _, wl := range evolve.PaperSuite() {
		c, err := runComparison(wl, opt)
		if err != nil {
			return nil, err
		}
		gs := c.genesysEvolutionSeconds()
		t.Rows = append(t.Rows, []string{
			wl,
			fnum(c.reports["CPU_a"].EvolutionSeconds),
			fnum(c.reports["CPU_c"].EvolutionSeconds),
			fnum(gs),
			fnum(c.reports["CPU_a"].EvolutionSeconds / gs),
		})
		r.series(wl+":cpuSpeedup", c.reports["CPU_a"].EvolutionSeconds/gs)
	}
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig9d regenerates evolution energy per generation on the GPUs vs
// GeneSys — the headline 4–5 orders of magnitude.
func Fig9d(opt Options) (*Result, error) {
	r := &Result{ID: "fig9d", Title: "Evolution energy per generation (joules)"}
	t := Table{Header: []string{"workload", "GPU_a", "GPU_c", "GENESYS", "GPU_c/GENESYS"}}
	if err := warmComparisons(evolve.PaperSuite(), opt); err != nil {
		return nil, err
	}
	for _, wl := range evolve.PaperSuite() {
		c, err := runComparison(wl, opt)
		if err != nil {
			return nil, err
		}
		gsJ := c.genesys.Float("eve/energy_pj") * 1e-12
		ratio := c.reports["GPU_c"].EvolutionEnergyJ / gsJ
		t.Rows = append(t.Rows, []string{
			wl,
			fnum(c.reports["GPU_a"].EvolutionEnergyJ),
			fnum(c.reports["GPU_c"].EvolutionEnergyJ),
			fnum(gsJ),
			fnum(ratio),
		})
		r.series(wl+":evolutionEfficiency", ratio)
	}
	t.Notes = append(t.Notes, "paper: EvE is 4–5 orders of magnitude more efficient than the GPUs")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig10ab regenerates the GPU inference time split (memcpy vs kernel).
func Fig10ab(opt Options) (*Result, error) {
	r := &Result{ID: "fig10ab", Title: "GPU inference time distribution"}
	if err := warmComparisons(evolve.PaperSuite(), opt); err != nil {
		return nil, err
	}
	for _, legend := range []string{"GPU_a", "GPU_b"} {
		t := Table{
			Title:  legend,
			Header: []string{"workload", "HtoD-ms", "DtoH-ms", "kernel-ms", "memcpy%"},
		}
		for _, wl := range evolve.PaperSuite() {
			c, err := runComparison(wl, opt)
			if err != nil {
				return nil, err
			}
			rep := c.reports[legend]
			t.Rows = append(t.Rows, []string{
				wl,
				fnum(rep.MemcpyHtoDSeconds * 1e3),
				fnum(rep.MemcpyDtoHSeconds * 1e3),
				fnum(rep.KernelSeconds * 1e3),
				fnum(rep.MemcpyFraction() * 100),
			})
			r.series(legend+":"+wl+":memcpyFrac", rep.MemcpyFraction())
		}
		r.Tables = append(r.Tables, t)
	}
	r.Tables[0].Notes = []string{"paper: ~70% of GPU_a inference time is memory transfer"}
	r.Tables[1].Notes = []string{"paper: ~20% for GPU_b"}
	return r, nil
}

// Fig10c regenerates the GeneSys time split.
func Fig10c(opt Options) (*Result, error) {
	r := &Result{ID: "fig10c", Title: "GeneSys inference time distribution"}
	t := Table{Header: []string{"workload", "to-ADAM-ms", "from-ADAM-ms", "compute-ms", "movement%"}}
	if err := warmComparisons(evolve.PaperSuite(), opt); err != nil {
		return nil, err
	}
	for _, wl := range evolve.PaperSuite() {
		c, err := runComparison(wl, opt)
		if err != nil {
			return nil, err
		}
		g := c.genesys
		toMS := c.soCfg.CyclesToSeconds(g.Int("scratchpad_to_adam_cycles")) * 1e3
		fromMS := c.soCfg.CyclesToSeconds(g.Int("adam_to_scratchpad_cycles")) * 1e3
		compMS := c.soCfg.CyclesToSeconds(g.Int("inference_compute_cycles")) * 1e3
		moveFrac := g.Float("data_movement_fraction")
		t.Rows = append(t.Rows, []string{
			wl, fnum(toMS), fnum(fromMS), fnum(compMS),
			fnum(moveFrac * 100),
		})
		r.series(wl+":movementFrac", moveFrac)
	}
	t.Notes = append(t.Notes, "paper: ~15% of GeneSys time is data movement, all of it on-chip")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig10d regenerates the memory-footprint comparison.
func Fig10d(opt Options) (*Result, error) {
	r := &Result{ID: "fig10d", Title: "On-device memory footprint (bytes)"}
	t := Table{Header: []string{"workload", "GPU_a", "GPU_b", "GENESYS", "GENESYS/GPU_a", "GPU_b/GENESYS"}}
	wls := []string{"mountaincar", "amidar-ram"}
	if err := warmComparisons(wls, opt); err != nil {
		return nil, err
	}
	for _, wl := range wls {
		c, err := runComparison(wl, opt)
		if err != nil {
			return nil, err
		}
		fa := float64(c.reports["GPU_a"].FootprintBytes)
		fb := float64(c.reports["GPU_b"].FootprintBytes)
		gs := float64(c.genesys.Int("footprint_bytes"))
		t.Rows = append(t.Rows, []string{
			wl, fnum(fa), fnum(fb), fnum(gs), fnum(gs / fa), fnum(fb / gs),
		})
		r.series(wl+":gpuB/genesys", fb/gs)
		r.series(wl+":genesys/gpuA", gs/fa)
	}
	t.Notes = append(t.Notes,
		"paper: GeneSys ~100× GPU_a (whole population resident) and ~100× below GPU_b")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// TableII regenerates the DQN vs EA comparison.
func TableII(opt Options) (*Result, error) {
	e, err := runWorkload("alien-ram", opt, 0)
	if err != nil {
		return nil, err
	}
	w, err := genWorkload(e, e.runner.Last())
	if err != nil {
		return nil, err
	}
	d := platform.DefaultDQN()
	tab := platform.CompareDQN(d, w)
	r := &Result{ID: "table2", Title: "DQN vs EA (Atari-class workload)"}
	t := Table{
		Header: []string{"metric", "DQN", "EA"},
		Rows: [][]string{
			{"per-step compute", fmt.Sprintf("%d MACs fwd + %d grad ops BP",
				tab.DQNForwardMACs, tab.DQNGradOps),
				fmt.Sprintf("%d MACs inference", tab.EAInferenceMACs)},
			{"reproduction ops/gen", "n/a (SGD)", inum(tab.EAGeneOps)},
			{"memory", fmt.Sprintf("%d MB replay + %d MB params/act",
				tab.DQNReplayBytes>>20, tab.DQNParamBytes>>20),
				fmt.Sprintf("%d KB entire generation", tab.EAMemoryBytes>>10)},
			{"compute ratio (DQN/EA)", fnum(tab.ComputeRatio()), "1"},
			{"memory ratio (DQN/EA)", fnum(tab.MemoryRatio()), "1"},
		},
	}
	t.Notes = append(t.Notes,
		"paper: DQN 3M MACs + 680K gradients, 54 MB; EA 115K MACs + 135K ops, <1 MB")
	r.series("computeRatio", tab.ComputeRatio())
	r.series("memoryRatio", tab.MemoryRatio())
	r.Tables = append(r.Tables, t)

	// Measured corroboration: run the executable DQN briefly on a
	// control task and report its per-step ledger next to the analytic
	// model.
	agent, err := rl.NewAgent("cartpole", rl.DefaultConfig(), opt.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := agent.Train(5); err != nil {
		return nil, err
	}
	meas := agent.Measured()
	fwd, grad := meas.PerStep()
	r.Tables = append(r.Tables, Table{
		Title:  "measured DQN ledger (executable baseline, cartpole, 5 episodes)",
		Header: []string{"fwd-MACs/step", "grad-ops/step", "replay-KB", "param-KB"},
		Rows: [][]string{{
			fnum(fwd), fnum(grad), inum(meas.ReplayBytes >> 10), inum(meas.ParamBytes >> 10),
		}},
		Notes: []string{"internal/rl executes the baseline; counters come from real arithmetic"},
	})
	r.series("measuredFwdMACsPerStep", fwd)
	return r, nil
}

// Footnote1 reproduces the paper's footnote 1: on the same
// environments, NEAT converges robustly while vanilla DQN needs
// shaping/tuning — it improves on dense-reward CartPole but stalls on
// sparse-reward MountainCar within a comparable interaction budget.
func Footnote1(opt Options) (*Result, error) {
	r := &Result{ID: "footnote1", Title: "NE vs RL convergence (paper footnote 1)"}
	t := Table{Header: []string{"task", "learner", "start", "end", "improved"}}

	for _, task := range []string{"cartpole", "mountaincar"} {
		// NEAT side.
		e, err := runWorkload(task, opt, 0)
		if err != nil {
			return nil, err
		}
		h := e.runner.History
		neatStart, neatEnd := h[0].MaxFitness, h[len(h)-1].MaxFitness
		t.Rows = append(t.Rows, []string{
			task, "NEAT", fnum(neatStart), fnum(neatEnd),
			fmt.Sprintf("%v", neatEnd > neatStart || e.solved),
		})
		r.series(task+":neatEnd", neatEnd)

		// DQN side, comparable small budget.
		cfg := rl.DefaultConfig()
		cfg.Hidden = []int{32, 32}
		cfg.BatchSize = 16
		cfg.WarmupSteps = 200
		cfg.EpsilonDecay = 2000
		agent, err := rl.NewAgent(task, cfg, opt.Seed)
		if err != nil {
			return nil, err
		}
		results, err := agent.Train(150)
		if err != nil {
			return nil, err
		}
		head := meanEpisodes(results[:20])
		tail := meanEpisodes(results[len(results)-20:])
		t.Rows = append(t.Rows, []string{
			task, "DQN", fnum(head), fnum(tail), fmt.Sprintf("%v", tail > head+5),
		})
		r.series(task+":dqnDelta", tail-head)

		// Evolution strategies (ref [3]) — the parameter-space EA:
		// forward passes only, like NEAT; fixed topology, unlike NEAT.
		strat, err := es.New(task, es.DefaultConfig(), opt.Seed)
		if err != nil {
			return nil, err
		}
		esHist, esSolved, err := strat.Run(20, 1e18)
		if err != nil {
			return nil, err
		}
		esStart := esHist[0]
		esBest := esStart
		for _, f := range esHist {
			if f > esBest {
				esBest = f
			}
		}
		t.Rows = append(t.Rows, []string{
			task, "ES", fnum(esStart), fnum(esBest),
			fmt.Sprintf("%v", esBest > esStart || esSolved),
		})
		r.series(task+":esBest", esBest)
	}
	t.Notes = append(t.Notes,
		"paper footnote 1: \"certain OpenAI environments never converged [under RL],",
		"or required a lot of tuning\" — sparse-reward mountaincar is the canonical case")
	r.Tables = append(r.Tables, t)
	return r, nil
}

func meanEpisodes(rs []rl.EpisodeResult) float64 {
	var sum float64
	for _, e := range rs {
		sum += e.Reward
	}
	return sum / float64(len(rs))
}

// TableIII dumps the baseline configurations.
func TableIII(opt Options) (*Result, error) {
	r := &Result{ID: "table3", Title: "Target system configurations"}
	t := Table{Header: []string{"legend", "inference", "evolution", "platform", "power-W"}}
	for _, s := range platform.TableIII() {
		t.Rows = append(t.Rows, []string{
			s.Legend, string(s.Inference), string(s.Evolution), s.Device.Name,
			fnum(s.Device.PowerW),
		})
	}
	t.Rows = append(t.Rows, []string{"GENESYS", "plp", "plp+glp", "genesys-soc",
		fnum(energy.DefaultSoC().RooflinePower().Total / 1000)})
	r.series("configs", float64(len(t.Rows)))
	r.Tables = append(r.Tables, t)
	return r, nil
}
