package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
)

// origin is the common monotonic time base of samples, spans and
// checker histories.
var origin = time.Now()

func now() int64 { return int64(time.Since(origin)) }

// percentile returns the exact p-quantile (0 < p < 1) of sorted, the
// smallest sample with at least p of the samples at or below it. It
// refuses when fewer than minBeyond samples lie beyond the result: a
// percentile resting on a handful of samples is noise, not a tail.
func percentile(sorted []int64, p float64, minBeyond int) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = max(idx, 0)
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want %d", p*100, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is ru_maxrss, which Linux reports in KiB.
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }
