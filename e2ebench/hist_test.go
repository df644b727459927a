package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

func TestBucketsCoverEveryValue(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	check := func(v uint64) {
		i := bucketOf(v)
		lo, width := bucketBounds(i)
		if v < lo || v-lo >= width {
			t.Fatalf("value %d in bucket %d = [%d, %d)", v, i, lo, lo+width)
		}
		if width > 1 && float64(width) > float64(lo)/subCount {
			t.Fatalf("bucket %d = [%d, +%d) is wider than 1/%d of its bound", i, lo, width, subCount)
		}
	}
	for v := uint64(0); v < 1<<12; v++ {
		check(v)
	}
	for range 100000 {
		check(r.Uint64() >> r.UintN(64))
	}
	check(math.MaxUint64)
	if got := bucketOf(math.MaxUint64); got >= numBuckets {
		t.Fatalf("bucket %d out of %d", got, numBuckets)
	}
}

func TestQuantileExactBelowSubCount(t *testing.T) {
	var h latencyHist
	for v := 1; v <= 100; v++ {
		h.record(time.Duration(v))
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		// Exact buckets place a sample within [v, v+1).
		if got := h.quantile(tc.q); got < tc.want || got >= tc.want+1 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := h.beyond(0.99); got != 1 {
		t.Errorf("beyond(0.99) = %d, want 1", got)
	}
}

// The recorder must stay within 1% of the exact nearest-rank percentile,
// so a 30% change in p99 cannot hide inside a bucket.
func TestQuantileWithinOnePercent(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var h latencyHist
	xs := make([]float64, 200000)
	for i := range xs {
		// Log-uniform from 1 µs to 10 ms, like request latencies.
		v := math.Exp(math.Log(1e3) + r.Float64()*math.Log(1e4))
		xs[i] = math.Floor(v)
		h.record(time.Duration(xs[i]))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.01 {
			t.Errorf("p%v = %v, exact %v: relative error %.4f", q*100, got, exact, rel)
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	var h latencyHist
	if got := h.quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

func TestSummariseTakesMedianWindow(t *testing.T) {
	start := time.Unix(0, 0)
	w := newWindowed(start, 3*time.Second)
	// Window throughputs 1, 3 and 2 ops/s; latencies 10 ns, 30 ns, 20 ns.
	for i, n := range []int{1, 3, 2} {
		for range n {
			t0 := start.Add(time.Duration(i)*time.Second + time.Millisecond)
			w.record(t0, t0.Add(time.Duration(10*n)))
		}
	}
	// A late operation counts in the last window.
	t0 := start.Add(5 * time.Second)
	w.record(t0, t0.Add(20))
	st := summarise([]*windowed{w})
	if st.opsPerSec != 3 {
		t.Errorf("median ops/s = %v, want 3 (windows %v)", st.opsPerSec, st.perWindow)
	}
	if st.p50us < 0.020 || st.p50us >= 0.021 {
		t.Errorf("median p50 = %v µs, want 0.020", st.p50us)
	}
	if st.samples != 7 {
		t.Errorf("samples = %d, want 7", st.samples)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
