package main

import (
	"math"
	"math/bits"
)

// hist is a latency histogram of fixed size: values up to 2^histBits are
// counted exactly, larger ones in 2^histBits buckets per power of two, so a
// bucket is never wider than 1/128 of its values.
//
// Latencies are kept in a histogram and not as a list of samples for the
// program's sake, not the harness's: a list grows with the run, and on
// workloads that allocate megabytes per op against a live heap of a few
// megabytes the collector's pace follows the live heap — a growing list made
// throughput drift upward through the window.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histBits    = 7
	histSub     = 1 << histBits
	histBuckets = (64 - histBits + 1) * histSub
)

// bucketOf maps a value to its bucket; buckets are ordered by value.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histBits - 1
	return (shift+1)*histSub + int(v>>shift) - histSub
}

// bucketBounds returns the lowest value of bucket i and the bucket's width.
func bucketBounds(i int) (lo, width uint64) {
	if i < 2*histSub {
		return uint64(i), 1
	}
	shift := i/histSub - 1
	return uint64(i%histSub+histSub) << shift, 1 << shift
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(uint64(max(ns, 0)))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// mergeScaled adds o's samples to h with every value multiplied by scale; a
// bucket's samples move together, as its middle value.
func (h *hist) mergeScaled(o *hist, scale float64) {
	for i, c := range o.counts {
		if c == 0 {
			continue
		}
		lo, width := bucketBounds(i)
		mid := float64(lo) + float64(width-1)/2
		h.counts[bucketOf(uint64(max(mid*scale, 0)+0.5))] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// percentile returns the p-th percentile (0 < p ≤ 100) by the nearest-rank
// rule, placing the rank inside its bucket by linear interpolation; 0 for an
// empty histogram.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(p/100*float64(h.n))), 1), h.n)
	seen := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+int(c) >= rank {
			lo, width := bucketBounds(i)
			return float64(lo) + float64(width)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += int(c)
	}
	return 0 // unreachable: the counts sum to n
}
