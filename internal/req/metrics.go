package req

import "repro/internal/obs"

// metrics aggregates structural counters across every Sketch this
// package builds. nil (the default) disables recording; every hook site
// is guarded by a nil check, so the disabled cost is one predictable
// branch at coarse-grained points (insert, compaction).
var metrics *obs.SketchMetrics

// SetMetrics enables (or, with nil, disables) metrics recording for all
// REQ sketches in this process. It must be called while no sketch built
// by this package is in use — typically at process start; after that,
// recording is safe from any number of goroutines.
func SetMetrics(m *obs.SketchMetrics) { metrics = m }

// recordCompactions adds n compactions to the counters.
func recordCompactions(n int) {
	if metrics != nil && n > 0 {
		metrics.Compactions.Add(int64(n))
	}
}
