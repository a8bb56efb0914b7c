// Command benchjson converts `go test -bench` text output into JSON and
// compares a current run against a recorded baseline.
//
// Usage:
//
//	benchjson -baseline results/bench_seed_stream.txt \
//	          -current  results/bench_stream_current.txt \
//	          -compare  'BenchmarkInsert/ddsketch=BenchmarkInsertBatch/ddsketch/batch' \
//	          -out      BENCH_stream.json
//
// Each -compare flag (repeatable) names a baseline benchmark and the
// current benchmark it should be measured against, separated by the
// '=' directly before the current name's "Benchmark" prefix (so
// sub-benchmark names that themselves contain '=', like "w=4", stay
// intact). The emitted JSON holds every parsed benchmark of both
// files (ns/op, B/op, allocs/op) plus a comparison list with the
// baseline/current ns/op ratio as "speedup".
//
// -baseline may be omitted, in which case the current file doubles as
// the baseline: -compare pairs then relate two benchmarks of the same
// run (e.g. a locked single-sketch baseline against the concurrent
// writer path, 'BenchmarkConcurrentInsert/kll/locked/w=4=Benchmark...').
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
}

// Comparison pairs a baseline benchmark with its current counterpart.
type Comparison struct {
	Baseline        string  `json:"baseline"`
	Current         string  `json:"current"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	CurrentNsPerOp  float64 `json:"current_ns_per_op"`
	Speedup         float64 `json:"speedup"`
}

// Report is the emitted document.
type Report struct {
	BaselineFile string            `json:"baseline_file"`
	CurrentFile  string            `json:"current_file"`
	Baseline     map[string]Result `json:"baseline"`
	Current      map[string]Result `json:"current"`
	Comparisons  []Comparison      `json:"comparisons"`
}

// gomaxprocsSuffix strips the -N parallelism suffix go test appends to
// benchmark names when GOMAXPROCS != 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseFile extracts benchmark results from go test -bench output.
func parseFile(path string) (map[string]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]Result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		// With -count=N each benchmark appears N times; keep the
		// fastest run (best-of-N), the standard way to strip scheduler
		// noise from a shared CI machine before a ratio gate.
		if prev, ok := out[name]; !ok || r.NsPerOp < prev.NsPerOp {
			out[name] = r
		}
	}
	return out, sc.Err()
}

// compareList collects repeated -compare flags.
type compareList []string

func (c *compareList) String() string     { return strings.Join(*c, ",") }
func (c *compareList) Set(s string) error { *c = append(*c, s); return nil }

// cutCompare splits a -compare pair at the '=' immediately preceding
// the current benchmark's name, so baseline names containing '=' (e.g.
// sub-benchmarks like "w=1") survive intact.
func cutCompare(pair string) (name, cur string, ok bool) {
	if i := strings.Index(pair, "=Benchmark"); i >= 0 {
		return pair[:i], pair[i+1:], true
	}
	name, cur, ok = strings.Cut(pair, "=")
	return name, cur, ok
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline go test -bench output file")
		currentPath  = flag.String("current", "", "current go test -bench output file")
		outPath      = flag.String("out", "", "output JSON file (default stdout)")
		compares     compareList
	)
	flag.Var(&compares, "compare", "baselineName=currentName pair to compare (repeatable)")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -current is required")
		os.Exit(2)
	}
	if *baselinePath == "" {
		// Self-comparison mode: -compare pairs relate benchmarks within
		// the current run.
		*baselinePath = *currentPath
	}

	report := Report{BaselineFile: *baselinePath, CurrentFile: *currentPath}
	var err error
	if report.Baseline, err = parseFile(*baselinePath); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if report.Current, err = parseFile(*currentPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for _, pair := range compares {
		name, cur, ok := cutCompare(pair)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: malformed -compare %q\n", pair)
			os.Exit(2)
		}
		b, okB := report.Baseline[name]
		c, okC := report.Current[cur]
		if !okB || !okC {
			fmt.Fprintf(os.Stderr, "benchjson: comparison %q: baseline found=%v current found=%v\n", pair, okB, okC)
			os.Exit(1)
		}
		cmp := Comparison{
			Baseline:        name,
			Current:         cur,
			BaselineNsPerOp: b.NsPerOp,
			CurrentNsPerOp:  c.NsPerOp,
		}
		if c.NsPerOp > 0 {
			cmp.Speedup = b.NsPerOp / c.NsPerOp
		}
		report.Comparisons = append(report.Comparisons, cmp)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *outPath == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
