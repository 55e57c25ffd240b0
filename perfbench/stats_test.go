package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestTailRule pins the percentile rule: p99 is reported only when at
// least ten samples lie beyond it; otherwise the highest percentile that
// keeps ten beyond is reported, and the quantile used says which.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
		wantV float64
	}{
		{n: 2000, wantQ: 0.99, wantV: 1980}, // 20 beyond
		{n: 1100, wantQ: 0.99, wantV: 1089}, // 11 beyond
		{n: 1000, wantQ: 0.99, wantV: 990},  // exactly 10 beyond
		{n: 100, wantQ: 0.90, wantV: 90},    // p99 would leave 1
		{n: 20, wantQ: 0.50, wantV: 10},
		{n: 5, wantQ: 0.20, wantV: 1}, // too few for any tail
	} {
		q, v := tail(seq(tc.n), 0.99)
		if math.Abs(q-tc.wantQ) > 1e-9 || v != tc.wantV {
			t.Errorf("n=%d: tail = (q %.4f, %v), want (q %.2f, %v)", tc.n, q, v, tc.wantQ, tc.wantV)
		}
		if beyond := tc.n - int(v); tc.n > minTail && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
	if q, v := tail(nil, 0.99); q != 0 || !math.IsNaN(v) {
		t.Errorf("empty: got (%v, %v)", q, v)
	}
}

func TestFailuresCountAsInfinite(t *testing.T) {
	ss := make([]sample, 2000)
	for i := range ss {
		ss[i] = sample{due: 0, end: int64(i+1) * 1000, ok: i%50 != 0} // 2% fail
	}
	l := latencies(ss)
	if _, v := tail(l, 0.99); !math.IsInf(v, 1) {
		t.Fatalf("p99 with 2%% failures = %v, want +Inf", v)
	}
	if finite(math.Inf(1)) != 1e12 {
		t.Fatal("finite must map +Inf to a printable value")
	}
}

func TestMedianAndWindows(t *testing.T) {
	if m := median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	// Two windows of 1s: 10 ops then 30 ops; the median of two windows
	// is their mean.
	var ss []sample
	for i := 0; i < 10; i++ {
		ss = append(ss, sample{due: int64(i) * 1e8, end: int64(i)*1e8 + 1e3, ok: true, bytes: 1 << 20})
	}
	for i := 0; i < 30; i++ {
		ss = append(ss, sample{due: 1e9 + int64(i)*3e7, end: 1e9 + int64(i)*3e7 + 2e3, ok: true})
	}
	w := phase{t0: 0, dur: 2e9, ss: ss, steal: []float64{0, 0}}.stats()
	if w.opsS != 20 || w.used != 2 {
		t.Fatalf("windows = %+v", w)
	}
	if w.mbS != 5 {
		t.Fatalf("payload rate = %v MiB/s, want 5", w.mbS)
	}
	// A window the hypervisor stole from is left out.
	w = phase{t0: 0, dur: 2e9, ss: ss, steal: []float64{0.3, 0}}.stats()
	if w.opsS != 30 || w.used != 1 || w.steal != 0.15 {
		t.Fatalf("with a stolen window: %+v", w)
	}
}
