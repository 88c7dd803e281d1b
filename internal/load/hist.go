// Package load is the open-loop load-generation harness behind
// cmd/loadgen and the soak test: a fixed arrival rate that never stalls
// the clock (so coordinated omission is measured, not hidden), mixed-op
// scenario presets against a real damocles cluster, HDR-style latency
// histograms, replication-lag sampling, and the partition drill, which
// blackholes a follower's replication link mid-traffic through a netfault
// proxy and audits staleness, catch-up and convergence.  A run's result is
// a LOAD json document — see docs/LOAD.md.  It is a test instrument: no
// node links it.
package load

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// histSubBits sets the histogram resolution: each power-of-two range is
// split into 2^histSubBits linear sub-buckets, so a recorded value's
// bucket upper bound overstates it by at most 1/2^histSubBits (≈1.6%).
const histSubBits = 6

// histBuckets spans 1ns .. ~2^62ns (≈146 years) — every representable
// latency lands in a bucket, the last one catching the absurd tail.
const histBuckets = (63-histSubBits)<<histSubBits + 1<<(histSubBits+1)

// Histogram is a log-bucketed latency histogram in the HDR spirit:
// constant-size, constant-time Record, mergeable by bucket-wise addition
// (merge order cannot change any quantile), with quantiles read as bucket
// upper bounds so an estimate never understates the true latency and
// overstates it by at most ~1.6%.  The zero value is ready to use.
// Histogram is not goroutine-safe; the harness keeps one per worker and
// merges at the end.
type Histogram struct {
	counts [histBuckets]uint64
	total  uint64
	sum    uint64 // ∑ recorded ns, for Mean
	min    uint64
	max    uint64
}

// bucketIndex maps a nanosecond value to its bucket.  Values below
// 2^(histSubBits+1) map exactly (index = value); above, the top
// histSubBits+1 bits of the mantissa select a sub-bucket within the
// value's power-of-two range.
func bucketIndex(v uint64) int {
	if v < 1<<(histSubBits+1) {
		return int(v)
	}
	h := uint(bits.Len64(v)) - histSubBits - 1
	i := int(h)<<histSubBits + int(v>>h)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketMax is the largest value that maps to bucket i — the quantile
// read-out point, so estimates bound the true value from above.
func bucketMax(i int) uint64 {
	if i < 1<<(histSubBits+1) {
		return uint64(i)
	}
	h := uint(i>>histSubBits) - 1
	base := uint64(i) - uint64(h)<<histSubBits
	return (base+1)<<h - 1
}

// Record adds one latency observation.  Negative durations clamp to zero
// (a clock hiccup must not corrupt the distribution).
func (h *Histogram) Record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += v
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h bucket-wise.  Merging is associative and
// commutative — (a+b)+c and a+(b+c) are bit-identical — so per-worker
// histograms can be combined in any order.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Max reports the largest recorded value (0 when empty).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Min reports the smallest recorded value (0 when empty).
func (h *Histogram) Min() time.Duration { return time.Duration(h.min) }

// Mean reports the arithmetic mean of recorded values (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / h.total)
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1) of the
// recorded values: the bucket boundary at or above the true quantile,
// within the histogram's ~1.6% relative resolution, capped at the exact
// recorded maximum.  Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			ub := bucketMax(i)
			if ub > h.max {
				ub = h.max
			}
			return time.Duration(ub)
		}
	}
	return time.Duration(h.max)
}

// String summarizes the distribution for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v p99.9=%v max=%v",
		h.total, h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max())
}
