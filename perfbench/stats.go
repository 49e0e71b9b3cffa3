package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// samples: the smallest value with at least p% of the samples at or below
// it. It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the nearest-rank index of the p-th percentile in n sorted
// samples.
func rankIndex(n int, p float64) int {
	// The tolerance keeps decimal percentiles such as 99.9, which binary
	// floating point stores slightly high, from rounding up a rank.
	x := p / 100 * float64(n)
	k := int(math.Ceil(x-1e-9*x)) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

func median(samples []float64) float64 { return percentile(samples, 50) }

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

// iqMean is the interquartile mean: the mean of the samples between the
// first and third quartile, robust to a few wild values yet smoother than
// the median. It returns 0 for no samples.
func iqMean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	return mean(s[lo:hi])
}

// robustRate is operations per second of operation time with every
// operation class counted at its interquartile-mean latency (µs): the
// classes keep their weight, but a burst of outside load on a shared host,
// which lands in a few operations' latencies, does not swing the result
// the way the plain mean does.
func robustRate(byClass map[string][]float64) float64 {
	n, busy := 0, 0.0
	for _, lat := range byClass {
		n += len(lat)
		busy += float64(len(lat)) * iqMean(lat)
	}
	if busy == 0 {
		return 0
	}
	return float64(n) / (busy / 1e6)
}

// tailLadder lists the percentiles the tail rule chooses among.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tail is the percentile rule's answer for one timing series: the highest
// percentile on tailLadder that still has at least ten samples beyond it,
// its value, and the sample count it rests on.
type tail struct {
	P     float64
	Value float64
	N     int
	// OK is false when even the median has fewer than ten samples beyond
	// it; P and Value then report the median anyway.
	OK bool
}

// tailOf applies the percentile rule to a series.
func tailOf(samples []float64) tail {
	n := len(samples)
	t := tail{P: 50, N: n}
	if n == 0 {
		return t
	}
	for _, p := range tailLadder {
		if n-1-rankIndex(n, p) < 10 {
			break
		}
		t.P, t.OK = p, true
	}
	t.Value = percentile(samples, t.P)
	return t
}
