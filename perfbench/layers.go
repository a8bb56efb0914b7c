package main

import "strings"

// The package→layer map: the one place that says which code belongs to
// which layer. The CPU-profile attribution below uses it, and the
// layer names are the prefixes of the *.cpu_share metrics.
//
// A sample is attributed as follows. A stack that runs GC work belongs
// to runtime.gc. Otherwise its frames are walked from the innermost
// out, and the first of these decides:
//   - a frame of an owning rule: that layer owns everything it calls (a
//     checkpoint's sketch serialization is checkpoint time, a delay
//     model's random draw is queue time);
//   - a callback boundary (the benchmark's and the harness's emit
//     callbacks): the innermost matched frame inside it, so the engine
//     frame that invoked the callback does not own the callback's work.
//
// Without either, the innermost matched frame decides, so runtime and
// standard-library helpers (malloc, memmove, sort) count toward the
// layer that called them. A stack no rule matches is other.

// Layer names, in the order they are reported.
const (
	layerDatagen    = "datagen"
	layerQueue      = "stream.queue"
	layerCoord      = "stream.coord"
	layerPanes      = "stream.panes"
	layerParallel   = "stream.parallel"
	layerSketch     = "sketch"
	layerCheckpoint = "checkpoint"
	layerBudget     = "budget"
	layerConcurrent = "concurrent"
	layerObs        = "obs"
	layerHarness    = "harness"
	layerGC         = "runtime.gc"
	layerOther      = "other"
)

var layerOrder = []string{layerDatagen, layerQueue, layerCoord, layerPanes, layerParallel, layerSketch,
	layerCheckpoint, layerBudget, layerConcurrent, layerObs, layerHarness, layerGC, layerOther}

// shareMetric is the metric that reports a layer's CPU share.
func shareMetric(layer string) string {
	if layer == layerGC {
		return "runtime.gc_cpu_share"
	}
	return layer + ".cpu_share"
}

type ruleKind int

const (
	plain    ruleKind = iota
	owns              // the layer owns everything this function calls
	boundary          // a callback: outer frames own nothing inside it
)

type layerRule struct {
	prefix string // function-name prefix, as the profile spells it
	layer  string
	kind   ruleKind
}

const (
	pkgStream = "repro/internal/stream."
	runState  = pkgStream + "(*runState)."
	pool      = pkgStream + "(*workerPool)."
)

// layerRules are checked in order; the first matching prefix wins.
var layerRules = []layerRule{
	// Delay models and the arrival heap.
	{pkgStream + "(*ExponentialDelay).Delay", layerQueue, owns},
	{pkgStream + "ZeroDelay.Delay", layerQueue, owns},
	{pkgStream + "ConstantDelay.Delay", layerQueue, owns},
	{pkgStream + "(*minHeap[", layerQueue, plain},
	// Checkpoint: snapshot capture and sealing, wherever it runs.
	{runState + "maybeSnapshot", layerCheckpoint, owns},
	{runState + "snapshot", layerCheckpoint, owns},
	{pkgStream + "sealPartial", layerCheckpoint, owns},
	{pkgStream + "(*seqSink).snapshot", layerCheckpoint, owns},
	{pool + "snapshot", layerCheckpoint, owns},
	{pool + "sealOpen", layerCheckpoint, owns},
	{"repro/internal/checkpoint.", layerCheckpoint, owns},
	{"main.(*timedStore).", layerCheckpoint, owns},
	// Budget governor.
	{runState + "enforceBudget", layerBudget, owns},
	{runState + "onDegrade", layerBudget, owns},
	{runState + "coarsenOldestPane", layerBudget, owns},
	{runState + "oldestSealed", layerBudget, owns},
	{runState + "nextSealedAfter", layerBudget, owns},
	{runState + "foldExact", layerBudget, owns},
	{"repro/internal/budget.", layerBudget, owns},
	// Panes and decay: sealing and window assembly own their clones,
	// rescaling and merges; routing does not own the inserts it issues.
	{runState + "sealPane", layerPanes, owns},
	{runState + "firePaned", layerPanes, owns},
	{runState + "cloneScaled", layerPanes, owns},
	{runState + "paneWeight", layerPanes, plain},
	{runState + "routePaned", layerPanes, plain},
	{runState + "initPanes", layerPanes, plain},
	{runState + "paneEnd", layerPanes, plain},
	{runState + "paneStart", layerPanes, plain},
	{runState + "lateWindowOf", layerPanes, plain},
	// Parallel workers: batching, channels, the worker loop.
	{pool, layerParallel, plain},
	{pkgStream + "(*eventBatch).", layerParallel, plain},
	{pkgStream + "newWorkerPool", layerParallel, plain},
	// Everything else in the engine is the coordinator.
	{pkgStream, layerCoord, plain},
	// Shared sketches own their handoffs and snapshot clones.
	{"repro/internal/concurrent.", layerConcurrent, owns},
	{"repro/internal/obs.", layerObs, plain},
	{"repro/internal/datagen.", layerDatagen, plain},
	// Sketch kernels.
	{"repro/internal/ddsketch.", layerSketch, plain},
	{"repro/internal/kll.", layerSketch, plain},
	{"repro/internal/req.", layerSketch, plain},
	{"repro/internal/uddsketch.", layerSketch, plain},
	{"repro/internal/moments.", layerSketch, plain},
	{"repro/internal/maxent.", layerSketch, plain},
	{"repro/internal/fastlog.", layerSketch, plain},
	{"repro/internal/sketch.", layerSketch, plain},
	// Evaluation and the exact oracle: the harness, stats, core and the
	// benchmark's own checks.
	{"repro/internal/harness.", layerHarness, boundary},
	{"repro/internal/stats.", layerHarness, plain},
	{"repro/internal/core.", layerHarness, plain},
	{"main.", layerHarness, boundary},
}

// gcFrames mark a stack as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.markroot",
}

func ruleFor(fn string) (layerRule, bool) {
	for _, r := range layerRules {
		if strings.HasPrefix(fn, r.prefix) {
			return r, true
		}
	}
	return layerRule{}, false
}

// attribute returns the layer of one sample; stack lists function
// names innermost first.
func attribute(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return layerGC
			}
		}
	}
	leaf := ""
	for _, fn := range stack {
		r, ok := ruleFor(fn)
		if !ok {
			continue
		}
		if r.kind == owns {
			return r.layer
		}
		if leaf == "" {
			leaf = r.layer
		}
		if r.kind == boundary {
			return leaf
		}
	}
	if leaf == "" {
		return layerOther
	}
	return leaf
}

// cpuShares groups weighted samples into layer shares that sum to 1.
// Every layer in layerOrder is present.
func cpuShares(samples []profileSample) map[string]float64 {
	out := make(map[string]float64, len(layerOrder))
	for _, l := range layerOrder {
		out[l] = 0
	}
	var total float64
	for _, s := range samples {
		out[attribute(s.stack)] += s.weight
		total += s.weight
	}
	if total == 0 {
		out[layerOther] = 1
		return out
	}
	for l := range out {
		out[l] /= total
	}
	return out
}
