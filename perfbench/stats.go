package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the smallest number of samples that must lie beyond a
// reported tail percentile for it to mean anything.
const minBeyond = 10

// tail is a tail percentile as reported: the percentile actually used,
// its value, and how many samples lie beyond it.
type tail struct {
	q      float64
	value  float64
	beyond int
}

// tailPercentiles are the percentiles tailOf may report, highest first.
var tailPercentiles = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// tailOf reports the highest percentile at or below want that leaves at
// least minBeyond samples strictly above its value. sorted must be in
// ascending order. With too few samples for any percentile it returns
// the median with the count it has, and callers print that count.
func tailOf(sorted []float64, want float64) tail {
	var t tail
	for _, q := range tailPercentiles {
		if q > want {
			continue
		}
		t = tail{q: q, value: quantile(sorted, q)}
		t.beyond = len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > t.value })
		if t.beyond >= minBeyond {
			return t
		}
	}
	return t
}

// quantile is the nearest-rank quantile of an ascending sample: the
// smallest value with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// durs converts durations to ascending milliseconds, or microseconds
// with us set.
func durs(ds []time.Duration, us bool) []float64 {
	out := make([]float64, len(ds))
	unit := float64(time.Millisecond)
	if us {
		unit = float64(time.Microsecond)
	}
	for i, d := range ds {
		out[i] = float64(d) / unit
	}
	sort.Float64s(out)
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
