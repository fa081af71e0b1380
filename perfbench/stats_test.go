package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 50, 50, 50},
		{100, 99, 99, 1},
		{100, 100, 100, 0},
		{1000, 99, 990, 10},
		{52, 75, 39, 13},
		{78, 85, 67, 11},
		{7, 50, 4, 3},
		{1, 99, 1, 0},
	} {
		p, _ := guardedPercentile(seq(c.n), c.p)
		if p.Value != c.want || p.Beyond != c.wantBeyond || p.N != c.n {
			t.Errorf("p%g of 1..%d = %v, want %v with %d beyond", c.p, c.n, p, c.want, c.wantBeyond)
		}
	}
}

func TestPercentileGuardRefusesThinSample(t *testing.T) {
	if _, err := guardedPercentile(seq(20), 50); err != nil {
		t.Error("p50 of 20 samples has 10 beyond and must be reported")
	}
	if _, err := guardedPercentile(seq(19), 50); err == nil {
		t.Error("p50 of 19 samples has only 9 beyond it and must be refused")
	}
	if _, err := guardedPercentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples has only 9 beyond it and must be refused")
	}
	if _, err := guardedPercentile(seq(13), 99); err == nil {
		t.Error("a p99 over 13 programs must be refused")
	}
	if _, err := guardedPercentile(nil, 50); err == nil {
		t.Error("an empty sample must be refused")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10},
		{[]float64{2, 8}, 4},
		{[]float64{5}, 5},
		{[]float64{1, 2, 4, 8}, math.Sqrt(8)},
		{[]float64{3, 0}, 0},
	} {
		if g := geomean(c.xs); math.Abs(g-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %v, want %v", c.xs, g, c.want)
		}
	}
}
