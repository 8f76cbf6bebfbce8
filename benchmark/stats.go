package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
)

// tailBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to mean anything.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle order statistic (mean of the two middle ones
// for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a tail metric may report.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailLadder that has at least
// tailBeyond samples above it (nearest rank), and that percentile. With
// too few samples for any of them it returns the maximum at percentile
// 100. A fixed ladder keeps the reported tail put as the sample count
// moves; the raw order statistic with exactly tailBeyond samples above it
// sits where the density is thinnest, and it moved by 15% (quartile
// spread) between root samples of one graph.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		i := int(math.Ceil(p/100*float64(n))) - 1
		if n-1-i >= tailBeyond {
			return s[i], p
		}
	}
	return s[n-1], 100
}

// tailNote describes which percentile a tail metric reports and over how
// many samples, so the reader can tell a p75 from a p99.
func tailNote(metric string, xs []float64) string {
	_, pct := tail(xs)
	return fmt.Sprintf("%s = p%g over %d samples", metric, pct, len(xs))
}

// hmean returns the harmonic mean of the positive samples (the Graph500
// TEPS aggregate), or 0 when there are none.
func hmean(xs []float64) float64 {
	var inv float64
	var n int
	for _, x := range xs {
		if x > 0 {
			inv += 1 / x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / inv
}

// peakRSSMiB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
