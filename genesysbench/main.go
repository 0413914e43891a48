// Command genesysbench is the repository benchmark. It drives the
// GeneSys closed loop and the genesysd daemon in-process through the
// repository's public packages, checks their outputs, and prints a host
// record and then one JSON result line:
//
//	genesysbench -workload evolve-ram -seed 1 -seconds 20 -trace 0
//
// Workloads: evolve-ram (the genesys CLI's closed loop with the SoC
// model), serve-fresh (cache-miss daemon jobs) and serve-replay (the
// daemon restarted on a warm store). -trace 0 reports the end-to-end
// metrics; -trace 1 runs the same workload with spans recorded by this
// package around each layer's public calls and reports the per-layer
// metrics. Times are read on the process CPU clock (see cpuClock).
// README.md explains the choices.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// baseSeconds is the measured time the workload sizes below are chosen
// for on a 2-vCPU Xeon VM; a longer -seconds scales them up.
const baseSeconds = 20

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd is what a user of each workload sees. Every workload reports
// all of them; README.md gives each one's meaning per workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer is what the traced run reports. A layer a workload does not
// exercise reads 0 there.
var perLayer = []metric{
	{"core.gen_ms_per_gen", "ms"},
	{"core.plan_ms_per_gen", "ms"},
	{"trace_overhead_pct", "%"},
	{"evolve.evaluate_ms_per_gen", "ms"},
	{"evolve.env_steps_per_gen", "count"},
	{"evolve.macs_per_gen", "count"},
	{"neat.epoch_ms_per_gen", "ms"},
	{"neat.speciate_ms_per_gen", "ms"},
	{"neat.reproduce_ms_per_gen", "ms"},
	{"neat.epoch_alloc_mb_per_gen", "MB"},
	{"soc.account_ms_per_gen", "ms"},
	{"soc.sim_ms_per_gen", "ms"},
	{"soc.sim_uj_per_gen", "uJ"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.first_record_ms_p50", "ms"},
	{"serve.queue_ms_mean", "ms"},
	{"serve.run_ms_mean", "ms"},
	{"serve.stream_ms_p50", "ms"},
	{"serve.records_per_s", "1/s"},
	{"experiments.computed_jobs", "count"},
	{"experiments.store_hits", "count"},
	{"experiments.memory_hits", "count"},
	{"experiments.scalar_ms_p50", "ms"},
	{"experiments.island_ms_p50", "ms"},
	{"experiments.pareto_ms_p50", "ms"},
	{"experiments.ram_ms_p50", "ms"},
	{"experiments.decode_ms_p50", "ms"},
	{"experiments.ram_decode_ms_p50", "ms"},
	{"store.get_ms_p50", "ms"},
	{"store.artifact_mb_p50", "MB"},
	{"store.puts", "count"},
	{"store.written_mb", "MB"},
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	values            map[string]float64
}

// fail counts one failed operation and says why on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "genesysbench: check failed: "+format+"\n", args...)
}

// set records a metric; only names in the printed table are reported.
func (r *report) set(name string, v float64) { r.values[name] = v }

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	// dir is the directory the run keeps its scratch files under.
	dir string
}

var workloads = map[string]func(cfg config, r *report) error{
	"evolve-ram":   runEvolveRAM,
	"serve-fresh":  runServeFresh,
	"serve-replay": runServeReplay,
}

func main() {
	var (
		cfg   config
		trace int
		fill  string
	)
	flag.StringVar(&cfg.workload, "workload", "evolve-ram", "evolve-ram, serve-fresh or serve-replay")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "seed the inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", baseSeconds, "measured time to size the workload for; below the default the work stays at its minimum")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", os.TempDir(), "directory for the run's scratch files")
	flag.StringVar(&fill, "fill", "", "internal: fill the store for serve-replay from this plan file")
	flag.Parse()

	if fill != "" {
		if err := runFill(fill); err != nil {
			fmt.Fprintln(os.Stderr, "genesysbench: fill:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "genesysbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	cfg.traced = trace == 1

	host := probeHost()
	// One thread computes at a time, so that the CPU clock (see
	// cpuClock) reads as a dedicated core's wall clock would, and so that
	// results do not depend on whether a neighbour holds the second vCPU.
	runtime.GOMAXPROCS(1)
	wall0, cpu0, steal0 := time.Now(), cpuClock(), stealTicks()
	r := &report{values: map[string]float64{}}
	if err := run(cfg, r); err != nil {
		fmt.Fprintln(os.Stderr, "genesysbench:", err)
		os.Exit(1)
	}
	host["run_wall_s"] = time.Since(wall0).Seconds()
	host["run_cpu_s"] = (cpuClock() - cpu0).Seconds()
	if steal0 >= 0 {
		host["run_steal_cpu_s"] = float64(stealTicks()-steal0) / 100
	}
	rec, err := json.Marshal(host)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genesysbench:", err)
		os.Exit(1)
	}
	fmt.Println("host", string(rec))
	table := endToEnd
	if cfg.traced {
		table = perLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]map[string]any{}}
	for _, m := range table {
		out.Metrics[m.name] = map[string]any{"value": r.values[m.name], "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genesysbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// probeHost describes the machine a run measures: CPU counts, the Go
// version, and how long two goroutines spinning on the same fixed work
// take relative to one. A ratio near 100% means the second vCPU was
// free; near 200% means a neighbour held it. With the run's hypervisor
// steal, added at the end, this tells a noisy run's cause.
func probeHost() map[string]any {
	one := spin(1)
	two := spin(2)
	return map[string]any{
		"nproc":              runtime.NumCPU(),
		"gomaxprocs_default": runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"spin_1x_ms":         ms(one),
		"spin_2x_ms":         ms(two),
		"spin_2x_pct":        100 * two.Seconds() / one.Seconds(),
	}
}

// spinSink keeps the compiler from removing the spin loops.
var spinSink [2]uint64

// spin runs n goroutines over the same fixed xorshift work and returns
// the wall time until all finish.
func spin(n int) time.Duration {
	start := time.Now()
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) {
			x := uint64(i + 1)
			for k := 0; k < 30_000_000; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			spinSink[i] = x
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return time.Since(start)
}
