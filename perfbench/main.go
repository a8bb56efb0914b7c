// Command perfbench is the repository's benchmark. It runs one named
// workload through the public engine and harness APIs, checks that the
// answers are correct, and prints its metrics:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out file] [--spans file]
//	perfbench compare <base.json>... -- <change.json>...
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// attributes the workload's time to the layers an event passes through
// (replays, config toggles, spans, obs counts and a CPU profile). The
// last line of standard output is the result JSON; earlier lines and
// --out carry the host fingerprint and the answers digest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// record is everything one run measured: the result line plus what a
// later comparison needs to know it compares like with like.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     fingerprint        `json:"host"`
	Digest   string             `json:"digest"`
	Reps     int                `json:"reps"`
	RepRates []float64          `json:"rep_events_per_s,omitempty"`
	Result   resultLine         `json:"result"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	values   map[string]float64 // metric name → value
	tally    tally
}

func (r *record) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// finish builds the result line from the catalog: every metric of the
// mode, in catalog order, each with its unit.
func (r *record) finish(defs []metricDef) error {
	r.Result = resultLine{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		r.Result.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.Result.Attempted < 1 {
		return fmt.Errorf("no operation was checked")
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	out := fs.String("out", "", "also write the full record (fingerprint, digest, metrics) as JSON here")
	spansOut := fs.String("spans", "", "with --trace 1, write the recorded spans as JSON here")
	tiny := fs.Bool("tiny", false, "run the workload at a tiny size (tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	sp, err := newSpec(*workload, *tiny)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rec, err := run(sp, *seed, *seconds, *trace == 1, *spansOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, n := range rec.tally.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: --out:", err)
			return 1
		}
	}
	fmt.Printf("host: %s\n", rec.Host)
	fmt.Printf("workload %s seed %d: %d reps, answers digest %s, %d/%d checks failed\n",
		rec.Workload, rec.Seed, rec.Reps, rec.Digest, rec.tally.failed, rec.tally.attempted)
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// run measures one workload in the requested mode.
func run(sp spec, seed uint64, seconds int, traced bool, spansOut string) (*record, error) {
	b := &bench{sp: sp, seed: seed}
	rec := &record{Workload: sp.name, Seed: seed, Seconds: seconds, Trace: traced, Host: hostFingerprint()}
	start := time.Now()
	defs := endToEnd
	var err error
	if traced {
		defs = perLayer
		err = b.traced(seconds, rec, spansOut)
	} else {
		err = b.untraced(seconds, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.set("failed_ops_ratio", float64(rec.tally.failed)/math.Max(1, float64(rec.tally.attempted)))
	if rec.Extra == nil {
		rec.Extra = map[string]float64{}
	}
	rec.Extra["failed_ops_ratio"] = rec.values["failed_ops_ratio"]
	rec.Extra["run_seconds"] = time.Since(start).Seconds()
	return rec, rec.finish(defs)
}
