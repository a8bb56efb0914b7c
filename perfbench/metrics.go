package main

// The metric catalog: every name the benchmark prints, with its unit.
// BENCHMARK.json lists the same names; TestCatalogMatchesBenchmarkJSON
// keeps the two in step.

// endToEnd are printed by an untraced run (--trace 0), in this order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"alloc_bytes_per_event", "B"},
	{"heap_live_peak_mb", "MB"},
	{"rel_error_mean", "ratio"},
}

// perLayer are printed by a traced run (--trace 1), in this order.
var perLayer = []metricDef{
	{"trace.overhead_ratio", "ratio"},
	{"run.ns_per_event", "ns"},
	{"datagen.ns_per_event", "ns"},
	{"datagen.cpu_share", "share"},
	{"stream.delay.ns_per_event", "ns"},
	{"stream.queue.ns_per_event", "ns"},
	{"stream.queue.cpu_share", "share"},
	{"stream.max_watermark_lag_ms", "ms"},
	{"stream.coord.ns_per_event", "ns"},
	{"stream.coord.cpu_share", "share"},
	{"stream.generated", "count"},
	{"stream.late_dropped", "count"},
	{"stream.window_fires", "count"},
	{"late_drop_ratio", "ratio"},
	{"stream.pane_merges", "count"},
	{"stream.decay.ns_per_event", "ns"},
	{"stream.panes.cpu_share", "share"},
	{"stream.parallel.speedup", "ratio"},
	{"stream.max_batch_queue_depth", "count"},
	{"stream.parallel.cpu_share", "share"},
	{"window_ms_p50", "ms"},
	{"window_ms_p99", "ms"},
	{"window.samples", "count"},
	{"ddsketch.insert_ns", "ns"},
	{"kll.insert_ns", "ns"},
	{"req.insert_ns", "ns"},
	{"uddsketch.insert_ns", "ns"},
	{"moments.insert_ns", "ns"},
	{"sketch.query_us", "us"},
	{"sketch.cpu_share", "share"},
	{"kll.compactions", "count"},
	{"uddsketch.collapses", "count"},
	{"moments.newton_iterations", "count"},
	{"checkpoint.put_us_p50", "us"},
	{"checkpoint.put_us_p99", "us"},
	{"checkpoint.bytes_per_snapshot", "B"},
	{"checkpoint.snapshots", "count"},
	{"checkpoint.ns_per_event", "ns"},
	{"checkpoint.cpu_share", "share"},
	{"budget.degradations", "count"},
	{"budget.bytes_peak", "B"},
	{"budget.ns_per_event", "ns"},
	{"budget.cpu_share", "share"},
	{"concurrent.insert_ns", "ns"},
	{"concurrent.snapshot_us_p50", "us"},
	{"concurrent.snapshot_us_p99", "us"},
	{"concurrent.handoffs", "count"},
	{"concurrent.cas_retries", "count"},
	{"concurrent.cpu_share", "share"},
	{"reader.lag_ms_max", "ms"},
	{"query_ms_p50", "ms"},
	{"query_ms_p99", "ms"},
	{"query.samples", "count"},
	{"obs.ns_per_event", "ns"},
	{"obs.cpu_share", "share"},
	{"harness.cpu_share", "share"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"other.cpu_share", "share"},
}

type metricDef struct {
	name, unit string
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
