// Command quantbench regenerates the tables and figures of "An
// Experimental Analysis of Quantile Sketches over Data Streams" (EDBT
// 2023). Each experiment is addressed by the paper artifact it
// reproduces:
//
//	quantbench -list
//	quantbench -run fig6 -scale 0.1
//	quantbench -run all -scale 1 -out results.txt
//
// Scale 1 reproduces the paper's workload sizes (minutes to hours);
// the default 0.1 preserves every qualitative conclusion in a fraction
// of the time.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ddsketch"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/kll"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/stream"
)

func main() {
	var (
		list          = flag.Bool("list", false, "list available experiments and exit")
		run           = flag.String("run", "", "experiment id to run (or 'all'); see -list")
		scale         = flag.Float64("scale", 0.1, "workload scale factor (1 = paper scale)")
		runs          = flag.Int("runs", 10, "independent repetitions for accuracy experiments (paper: 10)")
		rate          = flag.Int("rate", 50000, "stream event rate in events/s (paper: 50000)")
		winSec        = flag.Float64("window", 20, "tumbling window length in seconds before scaling (paper: 20)")
		winSlide      = flag.Float64("window-slide", 0, "sliding-window slide in seconds before scaling (0 = tumbling); windows of -window length start every -window-slide seconds, computed by pane-based sharing")
		decay         = flag.Float64("decay", 0, "exponential time-decay rate λ for sliding windows: older panes are down-weighted by exp(-λ·age) at window assembly (requires -window-slide)")
		windows       = flag.Int("windows", 10, "measured windows per run (paper: 10)")
		seed          = flag.Uint64("seed", 0x5eedc0de, "root RNG seed")
		parallel      = flag.Int("parallel", 1, "concurrent accuracy runs (results are identical at any parallelism)")
		streamWorkers = flag.Int("stream-workers", 1, "insert worker goroutines per stream engine (results are bit-identical at any count)")
		evalWorkers   = flag.Int("eval-workers", 1, "concurrent window evaluations per accuracy run (results are bit-identical at any count)")
		outPath       = flag.String("out", "", "also write results to this file")
		csv           = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		quiet         = flag.Bool("quiet", false, "suppress progress logging")
		metricsDump   = flag.Bool("metrics", false, "enable sketch/engine metrics and dump them at run end")
		ckptDir       = flag.String("checkpoint-dir", "", "enable fault-tolerant runs: checkpoint every stream into per-run subdirectories of this directory and auto-recover from crashes")
		ckptEvery     = flag.Int("checkpoint-every", 0, "snapshot cadence in fired windows (0 with -checkpoint-dir means every window)")
		faultSpec     = flag.String("fault", "", "deterministic fault plan, e.g. 'panic@w1:5000,stall@p2:100:50ms,dup@7,corrupt@3:bitflip'; requires -checkpoint-dir for the crashing faults to recover")
		httpAddr      = flag.String("http", "", "serve /metrics (Prometheus text), /debug/vars and /debug/pprof on this address (e.g. localhost:9090); implies -metrics")
		linger        = flag.Duration("linger", 0, "with -http, keep the process (and endpoints) alive this long after the runs finish")
		concWriters   = flag.Int("concurrent-writers", 0, "run a live concurrent shared-sketch ingestion stream with this many writer goroutines (0 disables); with -http, live snapshots are served at /quantile while the stream runs")
		concSketch    = flag.String("concurrent-sketch", "kll", "shared sketch for -concurrent-writers: kll or ddsketch")
		memBudget     = flag.Int("mem-budget", 0, "cap each stream run's live sketch footprint at this many bytes: sketches degrade in place past the budget (coarser but still bounded summaries), events are shed only when degradation cannot fit it (0 disables)")
	)
	flag.Parse()

	// Options.scaled clamps every size to at least 1, so a zero,
	// negative or NaN scale would run each experiment on one data point.
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "quantbench: -scale must be a positive finite number, got %v\n", *scale)
		os.Exit(2)
	}
	// A run with no measured window would print every error as 0.
	if *windows < 1 {
		fmt.Fprintf(os.Stderr, "quantbench: -windows must be at least 1, got %d\n", *windows)
		os.Exit(2)
	}
	if *winSlide < 0 || *winSlide > *winSec {
		fmt.Fprintf(os.Stderr, "quantbench: -window-slide %v outside [0, -window=%v]\n", *winSlide, *winSec)
		os.Exit(1)
	}
	if *decay > 0 && !(*winSlide > 0 && *winSlide < *winSec) {
		fmt.Fprintln(os.Stderr, "quantbench: -decay requires sliding windows (0 < -window-slide < -window)")
		os.Exit(1)
	}

	if *list || (*run == "" && *concWriters == 0) {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-8s  %-10s  %s\n", e.ID, "("+e.Ref+")", e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id>, -run all, or -concurrent-writers N")
		}
		return
	}

	var shared concurrent.Shared
	var sharedBuilder sketch.Builder
	if *concWriters > 0 {
		var err error
		shared, sharedBuilder, err = newSharedSketch(*concSketch, *concWriters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quantbench: -concurrent-sketch:", err)
			os.Exit(1)
		}
	}

	// A SIGINT/SIGTERM anywhere past this point requests a graceful
	// shutdown: the linger is cut short, the metrics server drains with
	// a bounded deadline, and shared writers are flushed so the final
	// state is exact. A second signal kills the process the default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := harness.Options{
		Scale:         *scale,
		Runs:          *runs,
		Rate:          *rate,
		WindowSeconds: *winSec,
		SlideSeconds:  *winSlide,
		DecayLambda:   *decay,
		Windows:       *windows,
		Seed:          *seed,
		Parallel:      *parallel,
		StreamWorkers: *streamWorkers,
		EvalWorkers:   *evalWorkers,
		MemoryBudget:  *memBudget,
	}
	if !*quiet {
		opts.Out = os.Stderr
	}
	if *ckptDir != "" {
		opts.CheckpointDir = *ckptDir
		opts.CheckpointEvery = *ckptEvery
	}
	if *faultSpec != "" {
		plan, err := faultinject.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quantbench: -fault:", err)
			os.Exit(1)
		}
		if *ckptDir == "" {
			fmt.Fprintln(os.Stderr, "quantbench: -fault without -checkpoint-dir: a crashing fault would abort the run with nothing to recover from")
		}
		opts.Faults = plan
	}

	var reg *obs.Registry
	if *metricsDump || *httpAddr != "" {
		reg = obs.NewRegistry()
		core.EnableMetrics(reg)
		opts.Metrics = reg
	}
	if *httpAddr != "" {
		// Custom mux: expose metrics, expvar and pprof without touching
		// http.DefaultServeMux (net/http/pprof's side-effect registration
		// is re-exported explicitly instead).
		reg.PublishExpvar("quantstream")
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		if shared != nil {
			// Live quantile reads against the shared sketch: valid (and
			// relaxed-consistent) at any moment while the stream runs.
			mux.Handle("/quantile", quantileHandler(shared))
		}
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quantbench: -http:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "quantbench: serving metrics on http://%s/metrics\n", ln.Addr())
		srv := &http.Server{Handler: mux}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "quantbench: http server:", err)
			}
		}()
		// Drain in-flight scrapes on exit, but never hang on a stuck
		// client: Shutdown is bounded by its own deadline.
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Fprintln(os.Stderr, "quantbench: http shutdown:", err)
			}
		}()
	}

	var sink io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quantbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		sink = io.MultiWriter(os.Stdout, f)
	}

	var ids []string
	if *run == "all" {
		for _, e := range harness.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	for _, id := range ids {
		e, ok := harness.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "quantbench: unknown experiment %q (use -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		fmt.Fprintf(sink, "=== %s (%s): %s ===\n", e.ID, e.Ref, e.Title)
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quantbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *csv {
				fmt.Fprintf(sink, "# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Fprintln(sink, t.Render())
			}
		}
		fmt.Fprintf(sink, "(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if shared != nil {
		if err := runConcurrentLive(sink, shared, sharedBuilder, *concSketch, opts, reg); err != nil {
			fmt.Fprintln(os.Stderr, "quantbench: concurrent:", err)
			os.Exit(1)
		}
		// The engine's workers flushed their own writer handles at
		// close; this quiescent-point flush covers any handle the run
		// did not own, so post-run snapshots (a /quantile scrape during
		// the linger, the metrics dump) are exact.
		shared.Flush()
	}

	if reg != nil {
		fmt.Fprintln(sink, "=== metrics ===")
		if err := reg.WriteText(sink); err != nil {
			fmt.Fprintln(os.Stderr, "quantbench: metrics dump:", err)
			os.Exit(1)
		}
	}
	if *httpAddr != "" && *linger > 0 {
		fmt.Fprintf(os.Stderr, "quantbench: lingering %s for scrapes\n", *linger)
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "quantbench: interrupted, shutting down")
		}
	}
}

// newSharedSketch builds the shared sketch for -concurrent-writers,
// together with the builder for the stream engine's windowed partials
// (same algorithm, study configuration).
func newSharedSketch(kind string, writers int) (concurrent.Shared, sketch.Builder, error) {
	switch kind {
	case "kll":
		return concurrent.NewKLL(kll.DefaultK, writers, 0),
			func() sketch.Sketch { return kll.New(kll.DefaultK) }, nil
	case "ddsketch":
		sh, err := concurrent.NewDDSketch(0.01, writers, 0)
		if err != nil {
			return nil, nil, err
		}
		return sh, func() sketch.Sketch { return ddsketch.New(0.01) }, nil
	default:
		return nil, nil, fmt.Errorf("unknown sketch %q (want kll or ddsketch)", kind)
	}
}

// runConcurrentLive drives a stream engine whose accepted events also
// feed the shared sketch: writers equal to the engine's worker count,
// one partition per worker. After every fired window — and, with
// -http, at any /quantile request — the shared sketch answers live
// quantile queries that cover all events propagated so far, windowed
// or not.
func runConcurrentLive(w io.Writer, shared concurrent.Shared, builder sketch.Builder, kind string, opts harness.Options, reg *obs.Registry) error {
	writers := shared.NumWriters()
	winDur := time.Duration(opts.WindowSeconds * opts.Scale * float64(time.Second))
	if winDur <= 0 {
		winDur = time.Second
	}
	cfg := stream.Config{
		WindowSize:   winDur,
		Rate:         opts.Rate,
		NumWindows:   opts.Windows,
		Partitions:   writers,
		Workers:      writers,
		Values:       datagen.NewUniform(1, 1000, opts.Seed),
		Builder:      builder,
		SharedSketch: shared,
	}
	if reg != nil {
		cfg.Metrics = reg.Engine()
	}
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== concurrent: live shared-%s ingestion, %d writers, relaxation <= %d values ===\n",
		kind, writers, shared.MaxRelaxation())
	start := time.Now()
	stats, err := eng.Run(func(r stream.WindowResult) {
		snap := shared.Snapshot().(*concurrent.Snapshot)
		line := fmt.Sprintf("window %2d fired: live epoch %4d, count %8d", r.Index, snap.Epoch(), snap.Count())
		if snap.Count() > 0 {
			if qs, err := sketch.Quantiles(snap, []float64{0.5, 0.99}); err == nil {
				line += fmt.Sprintf(", p50 %8.3f, p99 %8.3f", qs[0], qs[1])
			}
		}
		fmt.Fprintln(w, line)
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	snap := shared.Snapshot().(*concurrent.Snapshot)
	fmt.Fprintf(w, "done: %d accepted events in %s (%.0f inserts/s aggregate), final count %d, epoch %d\n\n",
		stats.Accepted, elapsed.Round(time.Millisecond),
		float64(stats.Accepted)/elapsed.Seconds(), snap.Count(), snap.Epoch())
	return nil
}

// quantileHandler serves live quantile reads over the shared sketch as
// JSON: GET /quantile?q=0.5,0.99 → {"epoch":…,"count":…,"quantiles":…}.
// The snapshot behind each response is consistent up to the layer's
// relaxation bound, echoed as max_relaxation.
func quantileHandler(shared concurrent.Shared) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		spec := req.URL.Query().Get("q")
		if spec == "" {
			spec = "0.5,0.9,0.99"
		}
		var qs []float64
		for _, part := range strings.Split(spec, ",") {
			q, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || !(q > 0 && q <= 1) {
				http.Error(w, fmt.Sprintf("bad quantile %q (want 0 < q <= 1)", part), http.StatusBadRequest)
				return
			}
			qs = append(qs, q)
		}
		snap := shared.Snapshot().(*concurrent.Snapshot)
		resp := struct {
			Epoch         uint64             `json:"epoch"`
			Count         uint64             `json:"count"`
			MaxRelaxation uint64             `json:"max_relaxation"`
			Quantiles     map[string]float64 `json:"quantiles"`
		}{
			Epoch:         snap.Epoch(),
			Count:         snap.Count(),
			MaxRelaxation: shared.MaxRelaxation(),
			Quantiles:     make(map[string]float64, len(qs)),
		}
		if snap.Count() > 0 {
			vals, err := sketch.Quantiles(snap, qs)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			for i, q := range qs {
				resp.Quantiles[strconv.FormatFloat(q, 'g', -1, 64)] = vals[i]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			// Client went away mid-write; nothing to clean up.
			_ = err
		}
	})
}
