package main

import (
	"math"
	"math/rand"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so tail must sort
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantValue float64 // values are 1..n
		wantPct   float64
	}{
		{n: 5000, wantValue: 4950, wantPct: 99}, // 50 beyond: p99 itself
		{n: 1000, wantValue: 990, wantPct: 99},  // exactly 10 beyond
		{n: 999, wantValue: 989, wantPct: 100 * 989.0 / 999},
		{n: 100, wantValue: 90, wantPct: 90},
		{n: 11, wantValue: 1, wantPct: 100 / 11.0},
	} {
		v, pct, ok := tail(seq(tc.n), 99)
		if !ok || v != tc.wantValue || math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("n=%d: tail = %v, p%v, %v; want %v, p%v", tc.n, v, pct, ok, tc.wantValue, tc.wantPct)
		}
	}
	if _, _, ok := tail(seq(10), 99); ok {
		t.Error("10 samples cannot support a tail percentile with 10 beyond it")
	}
}

// TestTailHasTenBeyond checks the rule on random samples: at least ten
// samples lie above the reported value, and it is the nearest-rank p99
// whenever that has ten beyond it.
func TestTailHasTenBeyond(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		n := 11 + rng.Intn(3000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		v, pct, ok := tail(xs, 99)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: %d samples beyond p%v", n, beyond, pct)
		}
		// Nearest-rank p99 when it has ten samples beyond it, else the
		// eleventh-largest sample.
		idx := int(math.Ceil(0.99*float64(n))) - 1
		if n-1-idx < minBeyond {
			idx = n - 1 - minBeyond
		}
		if want := sortedCopy(xs)[idx]; v != want || pct != 100*float64(idx+1)/float64(n) {
			t.Fatalf("n=%d: tail = %v at p%v, want %v at rank %d", n, v, pct, want, idx+1)
		}
	}
}

func TestMedian(t *testing.T) {
	if m, _ := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m, _ := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if _, ok := median(nil); ok {
		t.Error("empty sample has a median")
	}
}
