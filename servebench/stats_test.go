package main

import (
	"testing"
	"time"
)

// The spreads the repeatability mode prints must match the ones computed
// with Python's statistics.quantiles(xs, n=4); the expected values come
// from it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 2.0}, 1.25, 2.0, 3.5},
		{[]float64{4, 4, 1, 7, 9}, 2.5, 4.0, 8.0},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestSummarizeTail(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(lat)
	if s.tail != 90 || s.tailPct != 90 || s.n != 100 {
		t.Errorf("tail %v at p%v of %d, want 90 at p90 of 100", s.tail, s.tailPct, s.n)
	}
	if s.p50 != 50.5 {
		t.Errorf("p50 %v, want 50.5", s.p50)
	}
	if s := summarize(lat[:5]); s.tail != 5 || s.tailPct != 100 {
		t.Errorf("short sample: tail %v at p%v, want the maximum", s.tail, s.tailPct)
	}
}
