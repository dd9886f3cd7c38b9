package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear latency histogram over nanoseconds: 64 linear
// sub-buckets per power of two, so a bucket is at most 1.6 % wide, and
// percentiles interpolate inside the bucket by rank. A flat array, no
// allocation per sample; one per worker, merged after the run.
// (internal/metrics.Histogram has 16 sub-buckets and returns bucket
// midpoints: two runs would read the same p99 to the last digit.)
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
	max    int64
}

const (
	histSub     = 64
	histSubBits = 6
	// Values up to 2^40 ns (≈ 18 min) keep their resolution; larger ones
	// land in the last bucket.
	histBuckets = (40 - histSubBits + 1) * histSub
)

func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	bl := bits.Len64(uint64(v)) // > histSubBits
	b := (bl-histSubBits)*histSub + int(v>>uint(bl-histSubBits-1)) - histSub
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histBounds returns the smallest value of bucket b and of bucket b+1.
func histBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	shift := uint(b/histSub - 1)
	base := int64(histSub+b%histSub) << shift
	return float64(base), float64(base + int64(1)<<shift)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(ns)]++
	h.n++
	h.sum += uint64(ns)
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// percentile returns the p-th percentile in nanoseconds (0 when empty).
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(b)
			v := lo + (hi-lo)*(rank-seen)/float64(c)
			return math.Min(v, float64(h.max))
		}
		seen += float64(c)
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
