package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// warmupOps are issued on the standing cluster before timing starts, so
// lazy set-up and heap growth do not land in the first samples.
const warmupOps = 3

// phase is one timed closed-loop run on a standing cluster.
type phase struct {
	wallMs   []float64 // per-op API call time
	elapsed  time.Duration
	cpu      time.Duration // process user+sys
	alloc    uint64
	gcCycles uint32
	gcCPU    float64 // seconds of GC CPU time
	virtual  time.Duration
	virtS    []float64 // per-op simulated seconds
	bytes    uint64
	round    uint32
	contrib  []float64
	checks   tally
}

func (p *phase) ops() int { return len(p.wallMs) }

// perOp divides a phase total by its op count.
func (p *phase) perOp(total float64) float64 {
	if p.ops() == 0 {
		return 0
	}
	return total / float64(p.ops())
}

// warm issues the warm-up ops on b. Their outputs are checked too.
func (p *phase) warm(b *bench) {
	for i := 0; i < warmupOps; i++ {
		p.checks.record(b.op().err)
	}
}

// measure issues ops on b until dur has passed (or maxOps ops, when
// positive), checks their outputs and adds what they cost to p.
func (p *phase) measure(b *bench, dur time.Duration, maxOps int) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPUSeconds(), processCPU()
	start := time.Now()
	for n := 1; ; n++ {
		st := b.op()
		p.checks.record(st.err)
		p.wallMs = append(p.wallMs, float64(st.wall.Nanoseconds())/1e6)
		p.virtual += st.virtual
		p.virtS = append(p.virtS, st.virtual.Seconds())
		p.bytes += st.bytes
		p.round = max(p.round, st.round)
		p.contrib = append(p.contrib, float64(st.contributors))
		if maxOps > 0 && n >= maxOps || maxOps <= 0 && time.Since(start) >= dur {
			break
		}
	}
	p.elapsed += time.Since(start)
	p.cpu += processCPU() - cpu0
	p.gcCPU += gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	p.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles += ms1.NumGC - ms0.NumGC
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPUSeconds is the Go runtime's estimate of CPU time spent in GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// highestTail is the highest of the usual tail percentiles that leaves at
// least ten of n samples beyond it.
func highestTail(n int) float64 {
	for _, p := range []float64{99.9, 99.5, 99, 98, 95, 90, 75} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}
