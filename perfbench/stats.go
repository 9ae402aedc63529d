package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so one outlier cannot make
// the tail. A p99 therefore needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile of samples
// (the value at rank ceil(pct·n/100) in ascending order). It refuses,
// with an error, when fewer than minBeyond samples lie beyond that
// rank. +Inf samples are allowed: refused and failed jobs enter the
// latency samples as slower than every completed one.
func percentile(samples []float64, pct int) (float64, error) {
	if pct <= 0 || pct >= 100 {
		return 0, fmt.Errorf("percentile p%d out of (0,100)", pct)
	}
	n := len(samples)
	rank := (pct*n + 99) / 100 // ceil(pct·n/100) in integers
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", pct, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (the mean of the two middle values for an
// even count), as Python's statistics.median computes it; 0 for no
// samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf is the largest sample; 0 for none.
func maxOf(samples []float64) float64 {
	m := 0.0
	for _, v := range samples {
		m = math.Max(m, v)
	}
	return m
}

// mean is the arithmetic mean; 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
