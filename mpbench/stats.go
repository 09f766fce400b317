package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minTail is the least number of samples that must lie beyond a
// reported percentile; with fewer, the percentile is no tail and is
// not reported.
const minTail = 10

// tailPercentile returns the nearest-rank p-quantile of sorted when at
// least minTail samples lie beyond it, and false otherwise.
func tailPercentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minTail {
		return 0, false
	}
	return sorted[idx], true
}

// median returns the median of v (which it sorts), 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readPhaseStats snapshots the process counters the end-to-end metrics
// difference across the measured phase.
func readPhaseStats(probes *probeCounters) phaseStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseStats{
		at:        time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:    uint64Sample(s[0]),
		gcCycles:  uint64Sample(s[1]),
		gcPauseNs: ms.PauseTotalNs,
		searches:  probes.searches.Load(),
		busyNs:    probes.busyNs.Load(),
	}
}

func uint64Sample(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}
