package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by nearest rank on
// a sorted copy: the smallest value with at least q·n values at or below
// it. It returns 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := min(max(int(math.Ceil(q*float64(len(s)))), 1), len(s))
	return s[rank-1]
}

// latencyWindow is the stretch of due time one latency percentile is
// taken over: 1000 samples at 10k msgs/s, the fewest whose p99 still has
// ten samples beyond it.
const latencyWindow = 100 * time.Millisecond

// windowPercentiles splits consecutive samples (in due order) into
// windows of size samples and returns each window's q-quantile.
func windowPercentiles(xs []float64, size int, q float64) []float64 {
	n := max(len(xs)/max(size, 1), 1)
	var out []float64
	for w := 0; w < n; w++ {
		lo, hi := w*len(xs)/n, (w+1)*len(xs)/n
		if hi > lo {
			out = append(out, percentile(xs[lo:hi], q))
		}
	}
	return out
}

// benchSpans accumulates the benchmark's own spans around its calls into
// the program (count and total time per name). A nil *benchSpans records
// nothing, so end-to-end runs pay one branch per call.
type benchSpans struct {
	stats map[string]*spanStat
}

type spanStat struct {
	n, ns atomic.Int64
}

// spanNames are the calls the benchmark times from outside.
var spanNames = []string{"bundle.Load", "enqueue", "onScored", "onWarning",
	"pipeline.BuildDataset", "pipeline.Run", "TriggerCycle"}

func newBenchSpans() *benchSpans {
	b := &benchSpans{stats: make(map[string]*spanStat, len(spanNames))}
	for _, n := range spanNames {
		b.stats[n] = &spanStat{}
	}
	return b
}

func noop() {}

// begin starts a span; call the returned func to end it.
func (b *benchSpans) begin(name string) func() {
	if b == nil {
		return noop
	}
	st := b.stats[name]
	t0 := time.Now()
	return func() {
		st.n.Add(1)
		st.ns.Add(int64(time.Since(t0)))
	}
}

// total returns a span's count and total duration.
func (b *benchSpans) total(name string) (int64, time.Duration) {
	if b == nil {
		return 0, 0
	}
	st := b.stats[name]
	return st.n.Load(), time.Duration(st.ns.Load())
}

// totals snapshots every span's total duration.
func (b *benchSpans) totals() map[string]time.Duration {
	out := make(map[string]time.Duration, len(spanNames))
	for _, n := range spanNames {
		_, out[n] = b.total(n)
	}
	return out
}
