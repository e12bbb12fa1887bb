package main

import (
	"math"
	"slices"
	"time"
)

// quantile is one exact order statistic of a raw sample: the nearest-rank
// value, how many samples it was taken from, and how many lie strictly
// beyond it. Nothing is re-binned, so two quantiles of one sample differ
// whenever the data do.
type quantile struct {
	Value  float64
	N      int
	Beyond int
}

// exactQuantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1):
// the smallest sample with at least ⌈q·n⌉ samples at or below it. xs must
// be sorted ascending. An empty sample yields the zero quantile.
func exactQuantile(sorted []float64, q float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{}
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	v := sorted[rank-1]
	// Ties at v are not "beyond" it: count only strictly larger samples.
	beyond := n - rank
	for beyond > 0 && sorted[n-beyond] == v {
		beyond--
	}
	return quantile{Value: v, N: n, Beyond: beyond}
}

// sample is a growable set of raw observations in a chosen unit.
type sample []float64

func (s sample) sorted() []float64 {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

func (s sample) q(q float64) quantile { return exactQuantile(s.sorted(), q) }

// median of a small set of repeated measurements (set-up times).
func median(xs []float64) float64 { return exactQuantile(sample(xs).sorted(), 0.5).Value }

// interval is a span's [start, end) on the monotonic clock, in
// nanoseconds since the run's origin.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap one another (a batch's queries run on
// several workers) and may stick out of the parent; only their union
// inside the parent is subtracted, so self time is never negative.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	var covered int64
	curS, curE := int64(0), int64(-1)
	for _, c := range clipped {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
		} else if c.end > curE {
			curE = c.end
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
