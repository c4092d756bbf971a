package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	oneToTen := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // unsorted on purpose
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{oneToTen, 0, 1},
		{oneToTen, 1, 10},
		{oneToTen, 0.5, 5.5},
		{oneToTen, 0.9, 9.1},
		{oneToTen, 0.25, 3.25},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{7}, 0.9, 7},
		{[]float64{2, 4}, 0.9, 3.8},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if oneToTen[0] != 10 {
		t.Errorf("percentile sorted its input in place: %v", oneToTen)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("percentile of no samples should be NaN")
	}
}

func TestMidmean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5}, // drops 1, 2 and 9, 10
		{[]float64{100, 1, 2, 3, 4, 5, 6, -50}, 3.5},    // drops -50, 1 and 6, 100
		{[]float64{1, 2, 30}, 11},                       // fewer than 4: plain mean
		{[]float64{7}, 7},
	}
	for _, c := range cases {
		if got := midmean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("midmean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(midmean(nil)) {
		t.Errorf("midmean of no samples should be NaN")
	}
}

func TestErrorFrac(t *testing.T) {
	if got := errorFrac(3, 48); got != 0.0625 {
		t.Errorf("errorFrac(3, 48) = %v, want 0.0625", got)
	}
	if got := errorFrac(0, 10); got != 0 {
		t.Errorf("errorFrac(0, 10) = %v, want 0", got)
	}
	if !math.IsNaN(errorFrac(0, 0)) {
		t.Errorf("errorFrac with nothing attempted should be NaN")
	}
}
