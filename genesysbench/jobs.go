package main

import "repro/internal/serve"

// kind is a daemon job's run kind.
type kind int

const (
	scalar kind = iota
	island
	pareto
	ram
	numKinds
)

var kindNames = [numKinds]string{"scalar", "island", "pareto", "ram"}

// mix is the serve workloads' job mix. Scalar control jobs are five of
// every nine, above half, so the p50 of job latency falls well inside
// them; in serve-fresh the RAM jobs, the slowest kind, are two of nine,
// so the p90 falls near the middle of theirs. Neither percentile sits
// on a boundary between kinds, where a small shift in one kind's cost
// would jump it to another kind.
var mix = [9]kind{scalar, scalar, scalar, scalar, scalar, island, pareto, ram, ram}

// job is one daemon submission.
type job struct {
	kind kind
	spec serve.Spec
}

// size is the task, population and generation budget of the scalar,
// island and Pareto jobs of a serve workload.
type size struct {
	task      string
	pop, gens int
}

var (
	// freshSize makes a scalar job about 50 ms of evolution. The jobs
	// run mario because it rarely solves within the budget, so a job's
	// work hardly depends on its seed; mountaincar, the obvious choice,
	// solves after 2 to 20 generations depending on the seed.
	freshSize = size{"mario", 64, 20}
	// replaySize makes a replayed job stream about a hundred records, so
	// that a memory hit takes milliseconds rather than jitter-sized
	// microseconds, while the store fill stays cheap.
	replaySize = size{"mario", 16, 100}
)

// specFor is the job of a kind with a given seed. The RAM job is small
// because a RAM population is large, and the same in every workload.
func specFor(k kind, seed uint64, sz size) serve.Spec {
	sp := serve.Spec{Workload: sz.task, Population: sz.pop, Generations: sz.gens, Seed: seed}
	switch k {
	case island:
		sp.Islands, sp.MigrationEvery = 2, 5
	case pareto:
		sp.Objectives = "fitness+genes+energy"
	case ram:
		sp.Workload, sp.Population, sp.Generations = "alien-ram", 32, 3
	}
	return sp
}

// seeds draws distinct job seeds from a run seed. The salt goes into
// the top two bits, so lists drawn with different salts (measured jobs
// and warm-up jobs) never share a seed.
type seeds struct {
	state, salt uint64
	seen        map[uint64]bool
}

func newSeeds(seed, salt uint64) *seeds {
	return &seeds{state: seed, salt: salt << 62, seen: map[uint64]bool{}}
}

func (s *seeds) next() uint64 {
	for {
		s.state++
		v := splitmix(s.state)&(1<<62-1) | s.salt
		if v != 0 && !s.seen[v] { // seed 0 means the daemon default
			s.seen[v] = true
			return v
		}
	}
}

// jobLists returns count lists of n jobs each, n rounded up to whole
// rounds of the mix, so that every list holds the kinds in the mix's
// exact proportions. Each list is in an order shuffled by the seed and
// every job has its own seed. The same arguments always give the same
// lists.
func jobLists(seed uint64, count, n int, sz size) [][]job {
	rounds := (n + len(mix) - 1) / len(mix)
	src := newSeeds(seed, 0)
	lists := make([][]job, count)
	for c := range lists {
		jobs := make([]job, 0, rounds*len(mix))
		for r := 0; r < rounds; r++ {
			for _, k := range mix {
				jobs = append(jobs, job{kind: k, spec: specFor(k, src.next(), sz)})
			}
		}
		shuffle(seed+uint64(c)<<32, len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		lists[c] = jobs
	}
	return lists
}

// warmupJobs is one job per kind, with seeds outside every measured
// list. They do not depend on the run seed: warm-up is set-up, and
// setup_s should time the same work in every run.
func warmupJobs(sz size) []job {
	src := newSeeds(0, 3)
	jobs := make([]job, numKinds)
	for k := kind(0); k < numKinds; k++ {
		jobs[k] = job{kind: k, spec: specFor(k, src.next(), sz)}
	}
	return jobs
}

// shuffle is a Fisher-Yates shuffle driven by splitmix, so the order
// depends only on the seed, not on the Go release.
func shuffle(seed uint64, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		seed++
		swap(i, int(splitmix(seed)%uint64(i+1)))
	}
}

// splitmix is the splitmix64 finalizer: a bijective mix that turns
// consecutive integers into well-spread seeds.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
