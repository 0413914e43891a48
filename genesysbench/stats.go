package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
// A tail percentile taken from fewer samples moves with every run: the
// earlier daemon benchmark's tail came from about 30 samples and
// drifted 6-8% on identical code.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of samples by
// the nearest-rank method. It refuses, with an error, when fewer than
// minBeyond samples lie above that rank, so a p90 needs at least 100
// samples and a p50 at least 20.
func percentile(samples []float64, p int) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %d out of range (0, 100)", p)
	}
	n := len(samples)
	rank := (p*n + 99) / 100 // ceil(p·n/100), the 1-based nearest rank
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%d from %d samples: %d lie beyond it, need %d", p, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the middle of samples (the mean of the two middle values
// for an even count). It is used for set-up repetitions, which are too
// few for percentile's tail rule and need no tail.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// cpuClock reads the process's CPU clock: the user and system time of
// all its threads. The benchmark times everything on it rather than on
// the wall clock. Its development host, a 2-vCPU VM, loses up to half a
// CPU to hypervisor steal in bursts of seconds to minutes; that moved
// wall-clock medians 30% between back-to-back runs of identical code,
// while this clock, which the kernel keeps free of stolen time, stayed
// within a few percent. With one thread computing at a time
// (GOMAXPROCS=1, see main) it reads what a wall clock would on a
// dedicated core; the process never waits on I/O, since the store does
// not fsync and the daemon is reached over loopback.
func cpuClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only a bad pointer makes it fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks is the host's hypervisor steal so far, summed over CPUs, in
// clock ticks (1/100 s), or -1 if /proc/stat cannot be read.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cycleLog collects a run's per-cycle figures. A run repeats set-up and
// measured work several times (lineages of the closed loop, boots of
// the daemon). Set-up time and peak memory are medians over cycles;
// throughput pools every cycle's operations and time, because cycles
// differ in the work their seeds give them.
type cycleLog struct {
	setup, rss []float64
	ops        int
	spent      time.Duration
}

// begin starts a cycle: it returns freed memory to the OS and resets the
// kernel's peak-RSS mark, so each cycle's peak is its own.
func (c *cycleLog) begin() {
	debug.FreeOSMemory()
	// Best effort: without the reset the peak is the run's so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// end records a cycle's set-up time, and the operations it completed in
// its measured time.
func (c *cycleLog) end(setup time.Duration, ops int, spent time.Duration) {
	c.setup = append(c.setup, setup.Seconds())
	c.ops += ops
	c.spent += spent
	c.rss = append(c.rss, peakRSSMB())
}

func (c *cycleLog) report(r *report) {
	r.set("setup_s", median(c.setup))
	r.set("throughput_per_s", float64(c.ops)/c.spent.Seconds())
	r.set("rss_peak_mb", median(c.rss))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
