package main

import (
	"math"
	"math/bits"
	"time"
)

// Latency recorder: a log-linear histogram over nanoseconds. Values below
// 2^subBits are counted exactly; above that, each power of two is split
// into 2^subBits equal buckets, so a bucket is never wider than 1/128 of
// its lower bound and a reported quantile (the bucket's midpoint) is
// within 0.4% of the sample it stands for. obs.Histogram's power-of-two
// buckets would move p99 a whole bucket at a time and hide a 30% change.
const (
	subBits    = 7
	subCount   = 1 << subBits
	numBuckets = (64 - subBits + 1) << subBits
)

type latencyHist struct {
	counts [numBuckets]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - subBits
	return (shift+1)<<subBits + int(v>>uint(shift)) - subCount
}

// bucketBounds returns the smallest value of bucket i and how many
// integer values it holds.
func bucketBounds(i int) (lo, width uint64) {
	if i < subCount {
		return uint64(i), 1
	}
	shift := uint(i>>subBits - 1)
	top := uint64(i&(subCount-1)) + subCount
	return top << shift, 1 << shift
}

func (h *latencyHist) record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in nanoseconds: the sample
// of rank ceil(q*n), placed within its bucket by its rank among the
// bucket's samples, as if they were spread evenly across it. It returns 0
// for an empty histogram.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, width := bucketBounds(i)
			return float64(lo) + float64(width)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	panic("unreachable: counts sum to n")
}

// beyond returns how many samples lie above the q-quantile's rank; the
// benchmark reports a percentile only with the count that backs it.
func (h *latencyHist) beyond(q float64) uint64 {
	return h.n - uint64(math.Ceil(q*float64(h.n)))
}

// windowWidth is the length of the windows a timed phase is cut into.
// Throughput and latency are measured per window and reported as the
// median window, so a second in which the shared machine stalls the
// benchmark does not move the result.
const windowWidth = time.Second

// windowed is one worker's latencies, one histogram per window of the
// timed phase.
type windowed struct {
	start time.Time
	width time.Duration
	hists []latencyHist
}

func newWindowed(start time.Time, phase time.Duration) *windowed {
	n := max(1, int(phase/windowWidth))
	return &windowed{start: start, width: phase / time.Duration(n), hists: make([]latencyHist, n)}
}

// record counts an operation that ran from t0 to t1 in the window it
// completed in; operations completing after the phase count in the last.
func (w *windowed) record(t0, t1 time.Time) {
	i := min(int(t1.Sub(w.start)/w.width), len(w.hists)-1)
	w.hists[i].record(t1.Sub(t0))
}

// windowStats summarises the windows of a phase over all its workers.
type windowStats struct {
	opsPerSec, p50us, p99us float64 // medians over the windows
	samples, beyondP99      uint64  // totals over the windows
	perWindow               []float64
}

func summarise(ws []*windowed) windowStats {
	var st windowStats
	var ops, p50, p99 []float64
	for i := range ws[0].hists {
		var h latencyHist
		for _, w := range ws {
			h.merge(&w.hists[i])
		}
		if h.n == 0 {
			continue
		}
		ops = append(ops, float64(h.n)/ws[0].width.Seconds())
		p50 = append(p50, h.quantile(0.50)/1e3)
		p99 = append(p99, h.quantile(0.99)/1e3)
		st.samples += h.n
		st.beyondP99 += h.beyond(0.99)
	}
	st.opsPerSec, st.p50us, st.p99us, st.perWindow = median(ops), median(p50), median(p99), ops
	return st
}
