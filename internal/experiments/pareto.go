package experiments

import (
	"fmt"
	"strings"

	"repro/internal/evolve"
	"repro/internal/moea"
	"repro/internal/store"
)

// This file is the Pareto (multi-objective) run kind's store codec (one
// pareto.json artifact per key) plus the Pareto-front figure generator
// over the existing workloads.

// paretoSchema stamps pareto.json artifacts.
const paretoSchema = "genesys-pareto/1"

const paretoFile = "pareto.json"

// JoinObjectives renders an objective vector in the canonical '+'
// form used by store keys and the wire ("fitness+genes+energy").
func JoinObjectives(names []string) string { return strings.Join(names, "+") }

// SplitObjectives parses the canonical '+' form back to a vector.
func SplitObjectives(joined string) []string {
	if joined == "" {
		return nil
	}
	return strings.Split(joined, "+")
}

// encodePareto renders a finished Pareto run as its artifact.
func encodePareto(_ store.Key, run *evolve.ParetoRun) (store.Meta, map[string][]byte, error) {
	return encodeDoc(paretoFile, paretoSchema, run, store.Meta{Solved: run.Solved, BestFitness: run.BestFitness, Generations: len(run.History)})
}

// decodePareto rebuilds a Pareto run from its artifact.
func decodePareto(k store.Key, art *store.Artifact) (*evolve.ParetoRun, error) {
	run, err := decodeDoc[evolve.ParetoRun](art, paretoFile, paretoSchema)
	if err == nil && (run.Seed != k.Seed || JoinObjectives(run.Objectives) != k.Objectives) {
		return nil, fmt.Errorf("%s does not match its key", paretoFile)
	}
	return run, err
}

// --- the Pareto-front figure ---

func init() {
	register("pareto", ParetoFront)
}

// ParetoFront is the multi-objective experiment over the classic
// control suite: each workload evolves under NSGA-II selection with
// the canonical three-axis vector (task fitness up, genome size down,
// structural chip energy down) and the figure reports the resulting
// Pareto fronts — the accuracy/complexity/energy trade-off surface a
// scalar run collapses to a single champion.
func ParetoFront(opt Options) (*Result, error) {
	res := &Result{ID: "pareto", Title: "Pareto fronts: fitness vs genome size vs chip energy (NSGA-II)"}
	objectives := evolve.DefaultParetoObjectives()
	for _, wl := range evolve.ControlSuite() {
		out, err := Resolve(Request{RunSpec: evolve.RunSpec{
			Workload:    wl,
			Population:  opt.popFor(wl),
			Generations: opt.gensFor(wl),
			Seed:        opt.Seed,
			Objectives:  objectives,
			Parallelism: opt.Parallelism,
			BatchWidth:  opt.BatchWidth,
		}, Ctx: opt.Ctx})
		if err != nil {
			return nil, err
		}
		run := out.Pareto
		t := Table{
			Title:  fmt.Sprintf("%s front (pop %d, %d generations, objectives %s)", wl, run.Population, len(run.History), JoinObjectives(run.Objectives)),
			Header: []string{"genome", "fitness", "genes", "energy_pJ", "crowding"},
		}
		minEnergy, maxFit := 0.0, 0.0
		for i, p := range run.Front {
			crowd := "boundary"
			if p.Crowding != moea.CrowdingMax {
				crowd = fnum(p.Crowding)
			}
			t.Rows = append(t.Rows, []string{
				inum(p.GenomeID),
				fnum(p.Values["fitness"]),
				inum(int(p.Values["genes"])),
				fnum(p.Values["energy"]),
				crowd,
			})
			if i == 0 || p.Values["energy"] < minEnergy {
				minEnergy = p.Values["energy"]
			}
			if i == 0 || p.Values["fitness"] > maxFit {
				maxFit = p.Values["fitness"]
			}
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("front size %d of population %d; best task fitness %s; cheapest front genome %s pJ",
				len(run.Front), run.Population, fnum(run.BestFitness), fnum(minEnergy)))
		res.Tables = append(res.Tables, t)
		res.series(wl+":frontSize", float64(len(run.Front)))
		res.series(wl+":bestFitness", run.BestFitness)
		res.series(wl+":frontMaxFitness", maxFit)
		res.series(wl+":frontMinEnergy", minEnergy)
		res.series(wl+":generations", float64(len(run.History)))
	}
	return res, nil
}
