package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// heapLive reads the live heap as of the last completed GC cycle.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runtimeTotals reads the cumulative allocation and GC-cycle counters.
func runtimeTotals() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		gcCycles = s[1].Value.Uint64()
	}
	return allocBytes, gcCycles
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// tailQuantile is the percentile reported beside the median: p99 when
// at least ten samples lie beyond it, otherwise 0 (not supported by the
// sample count).
func tailQuantile(xs []float64) float64 {
	if len(xs) < 1000 {
		return 0
	}
	return quantile(xs, 0.99)
}

// clockPairNS measures the cost of one time.Now start/stop pair, the
// reason per-event work is never timed in place.
func clockPairNS() float64 {
	const n = 200000
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		a := time.Now()
		sink += time.Since(a)
	}
	total := time.Since(start)
	_ = sink
	return float64(total) / n
}
