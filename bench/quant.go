package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the exact q-quantile of sorted by the nearest-rank
// rule: the smallest sample with at least a share q of the samples at or
// below it.  sorted must be ascending and non-empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median of a small float sample; the mean of the two middle values when
// the count is even.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
