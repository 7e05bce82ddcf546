package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("percentile sorted its input in place")
	}
	if percentile(nil, 0.5) != 0 {
		t.Fatal("empty sample should give 0")
	}
	// p99 of 1000 samples is the 990th smallest: ten samples lie beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(1000 - i)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestWindowPercentiles(t *testing.T) {
	// Three windows of four samples; the last window absorbs no remainder
	// because 12 divides evenly.
	xs := []float64{1, 2, 3, 4, 10, 20, 30, 40, 5, 5, 5, 5}
	got := windowPercentiles(xs, 4, 1)
	want := []float64{4, 40, 5}
	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %d max = %v, want %v", i, got[i], want[i])
		}
	}
	// Fewer samples than one window still yield one window.
	if got := windowPercentiles([]float64{7, 9}, 1000, 0.5); len(got) != 1 || got[0] != 7 {
		t.Fatalf("short sample: %v", got)
	}
}
