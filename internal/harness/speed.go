package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sketch"
)

func init() {
	register(Experiment{
		ID:    "fig5a",
		Title: "Average insertion time of an element",
		Ref:   "Fig 5a",
		Run:   runFig5a,
	})
	register(Experiment{
		ID:    "fig5b",
		Title: "Quantile computation time against number of entries processed",
		Ref:   "Fig 5b",
		Run:   runFig5b,
	})
	register(Experiment{
		ID:    "fig5c",
		Title: "Average time to merge two sketches (100 and 1000 sketches)",
		Ref:   "Fig 5c",
		Run:   runFig5c,
	})
}

// speedBuilders returns the five configured builders for the speed
// experiments: pre-sampled Pareto data, so the Moments transform follows
// the Pareto setting (log), exactly as in the accuracy runs.
func speedBuilders(seed uint64) (map[string]sketch.Builder, error) {
	return core.BuildersForDataset(datagen.DatasetPareto, seed)
}

// presample draws n values from the Fig 5 fill distribution, Pareto(α=1,
// Xm=1), so measured loops exclude generation cost.
func presample(n int, seed uint64) []float64 {
	return datagen.Take(datagen.NewPareto(1, 1, seed), n)
}

// runFig5a measures mean per-element insertion time after 10M/100M/1B
// inserts (scaled). Insertion time is size-independent (Sec 4.4.1), so
// the scaled sizes preserve the comparison.
func runFig5a(opts Options) ([]Table, error) {
	sizes := []int{opts.scaled(10_000_000), opts.scaled(100_000_000), opts.scaled(1_000_000_000)}
	builders, err := speedBuilders(opts.Seed)
	if err != nil {
		return nil, err
	}
	// One shared pre-sampled buffer, cycled: keeps memory flat at any
	// scale while exercising the full value range.
	buf := presample(1_000_000, opts.Seed^0xfafafa)
	tbl := Table{
		Title:   "Fig 5a: average insertion time per element (pre-sampled Pareto α=1, Xm=1)",
		Headers: append([]string{"sketch"}, fmt.Sprintf("%d inserts", sizes[0]), fmt.Sprintf("%d inserts", sizes[1]), fmt.Sprintf("%d inserts", sizes[2])),
		Notes: []string{
			"paper ordering: DDSketch fastest; UDDSketch slowest (map store + uniform collapses); all < 0.2 µs",
		},
	}
	if opts.Scale != 1.0 {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("scaled sizes (scale=%g); paper uses 10M/100M/1B", opts.Scale))
	}
	for _, alg := range core.AlgorithmNames() {
		row := []string{alg}
		for _, n := range sizes {
			sk := builders[alg]()
			d := measure(func() {
				j := 0
				for i := 0; i < n; i++ {
					sk.Insert(buf[j])
					j++
					if j == len(buf) {
						j = 0
					}
				}
			})
			row = append(row, fmtDur(d/time.Duration(n)))
		}
		tbl.Rows = append(tbl.Rows, row)
		opts.logf("fig5a: %s done", alg)
	}
	return []Table{tbl}, nil
}

// runFig5b measures the time to answer the study's quantile set as a
// function of the data size already consumed by the sketch.
func runFig5b(opts Options) ([]Table, error) {
	baseSizes := []int{10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}
	var sizes []int
	for _, s := range baseSizes {
		sizes = append(sizes, opts.scaled(s))
	}
	builders, err := speedBuilders(opts.Seed)
	if err != nil {
		return nil, err
	}
	buf := presample(1_000_000, opts.Seed^0x5b5b5b)
	headers := []string{"sketch"}
	for _, s := range sizes {
		headers = append(headers, fmt.Sprintf("n=%d", s))
	}
	tbl := Table{
		Title:   "Fig 5b: time to answer the 8-quantile query set vs data size",
		Headers: headers,
		Notes: []string{
			"paper: Moments worst (maxent solve, size-independent); DDS/UDDS/KLL fast; REQ grows sub-linearly",
		},
	}
	qs := core.AllQuantiles()
	for _, alg := range core.AlgorithmNames() {
		row := []string{alg}
		for _, n := range sizes {
			sk := builders[alg]()
			j := 0
			for i := 0; i < n; i++ {
				sk.Insert(buf[j])
				j++
				if j == len(buf) {
					j = 0
				}
			}
			// Repeat the query set enough times to resolve fast sketches;
			// re-inserting between repetitions would perturb state, so we
			// accept intra-repetition caching (Moments caches its solve —
			// mirroring how a real multi-quantile query behaves) but reset
			// the cache per repetition via a sacrificial insert before
			// timing when repetitions > 1.
			reps := 1
			if n <= 1_000_000 {
				reps = 10
			}
			var total time.Duration
			var qErr error
			for r := 0; r < reps; r++ {
				sk.Insert(buf[r%len(buf)]) // invalidate caches, negligible state change
				total += measure(func() {
					if _, err := sketch.Quantiles(sk, qs); err != nil && qErr == nil {
						qErr = fmt.Errorf("fig5b %s n=%d: %w", alg, n, err)
					}
				})
			}
			if qErr != nil {
				return nil, qErr
			}
			row = append(row, fmtDur(total/time.Duration(reps)))
		}
		tbl.Rows = append(tbl.Rows, row)
		opts.logf("fig5b: %s done", alg)
	}
	if opts.Scale != 1.0 {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("scaled sizes (scale=%g); paper sweeps to 1e8+", opts.Scale))
	}
	return []Table{tbl}, nil
}

// runFig5c measures the mean time to merge two sketches while folding 100
// and 1000 sketches, each pre-filled with (scaled) 1M events from the
// uniform, binomial and Zipf workloads.
func runFig5c(opts Options) ([]Table, error) {
	fillSize := opts.scaled(1_000_000)
	counts := []int{100, 1000}
	// The merge workloads (uniform/binomial/zipf) are small-ranged, so
	// Moments runs untransformed here.
	builders, err := core.BuildersForDataset(datagen.DatasetUniform, opts.Seed)
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, workload := range datagen.MergeWorkloadNames() {
		tbl := Table{
			Title:   fmt.Sprintf("Fig 5c: average time to merge two sketches (%s fill, %d events each)", workload, fillSize),
			Headers: []string{"sketch", fmt.Sprintf("merging %d", counts[0]), fmt.Sprintf("merging %d", counts[1])},
			Notes: []string{
				"paper: Moments ≥10x faster than all; UDDS slowest of the summary sketches; KLL/REQ slowest overall",
			},
		}
		seedState := opts.Seed ^ 0xcc00cc
		for _, alg := range core.AlgorithmNames() {
			row := []string{alg}
			for _, count := range counts {
				// Build a pool of distinct filled sketches. Filling
				// count×fillSize values dominates runtime, so the pool is
				// capped and reused cyclically — merge cost depends only on
				// sketch state, which is identical across pool reuse.
				pool := count
				if pool > 32 {
					pool = 32
				}
				sketches := make([]sketch.Sketch, pool)
				for i := range sketches {
					src, err := datagen.NewMergeWorkload(workload, datagen.SplitMix64(&seedState))
					if err != nil {
						return nil, err
					}
					sk := builders[alg]()
					for j := 0; j < fillSize; j++ {
						sk.Insert(src.Next())
					}
					// Filled, and merged count/pool times below.
					sketch.Trim(sk)
					sketches[i] = sk
				}
				acc := builders[alg]()
				var mErr error
				d := measure(func() {
					for i := 0; i < count; i++ {
						if err := acc.Merge(sketches[i%pool]); err != nil && mErr == nil {
							mErr = fmt.Errorf("fig5c %s/%s: %w", alg, workload, err)
						}
					}
				})
				if mErr != nil {
					return nil, mErr
				}
				row = append(row, fmtDur(d/time.Duration(count)))
			}
			tbl.Rows = append(tbl.Rows, row)
			opts.logf("fig5c: %s/%s done", workload, alg)
		}
		if opts.Scale != 1.0 {
			tbl.Notes = append(tbl.Notes, fmt.Sprintf("scaled fill (scale=%g); paper fills 1M per sketch", opts.Scale))
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}
