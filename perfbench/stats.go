package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile guard: a percentile is reported only when
// at least this many samples lie beyond it, so a tail figure never rests
// on a handful of requests.
const minBeyond = 10

// pct is one guarded percentile with the sample counts it rests on.
type pct struct {
	P      float64 // the percentile, 0–100
	Value  float64
	N      int // samples
	Beyond int // samples ranked above the reported one
}

func (p pct) String() string {
	return fmt.Sprintf("p%g=%.4f (n=%d, %d beyond)", p.P, p.Value, p.N, p.Beyond)
}

// percentile returns the nearest-rank p-th percentile of sorted and the
// number of samples ranked above it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// guardedPercentile computes the p-th percentile of xs and refuses it
// when fewer than minBeyond samples lie beyond it.
func guardedPercentile(xs []float64, p float64) (pct, error) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, beyond := percentile(s, p)
	out := pct{P: p, Value: v, N: len(s), Beyond: beyond}
	if beyond < minBeyond {
		return out, fmt.Errorf("p%g refused: %d samples, only %d beyond it (need %d)", p, len(s), beyond, minBeyond)
	}
	return out, nil
}

// median is the middle of xs (the mean of the two middle values for an
// even count). It summarizes a small per-program sample; unlike
// guardedPercentile it is never reported as a tail figure.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive xs (0 if any is not).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
