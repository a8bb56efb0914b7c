package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the compare step reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares records written with --out: the files before
// "--" are the base, the files after it the change. It refuses (exit 2)
// when any two records come from different hosts, and exits 1 when a
// metric's change median is worse than the base median by more than
// the metric's bound.
//
//	perfbench compare [--benchmark BENCHMARK.json] base1.json ... -- change1.json ...
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	split := -1
	for i, a := range rest {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(rest)-1 {
		fmt.Fprintln(os.Stderr, "compare: want base records, then --, then change records")
		return 2
	}
	var def benchmarkFile
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &def)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	base, err := readRecords(rest[:split])
	if err == nil {
		var change []record
		change, err = readRecords(rest[split+1:])
		if err == nil {
			return compareRecords(def, base, change)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 2
}

func readRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace {
			return nil, fmt.Errorf("%s: a traced record; compare end-to-end (--trace 0) records", p)
		}
		out = append(out, r)
	}
	return out, nil
}

// compareRecords prints one row per workload and metric and returns the
// exit code.
func compareRecords(def benchmarkFile, base, change []record) int {
	all := append(append([]record(nil), base...), change...)
	for _, r := range all[1:] {
		if why := sameHost(all[0].Host, r.Host); why != "" {
			fmt.Fprintf(os.Stderr, "compare: refusing to compare results from different hosts: %s\n", why)
			return 2
		}
	}
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	bw, cw := byWorkload(base), byWorkload(change)
	var names []string
	for w := range bw {
		if _, ok := cw[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Printf("%-15s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "base median", "change median", "worse by", "bound", "verdict")
	for _, w := range names {
		for _, m := range def.EndToEnd {
			bv, cv := metricValues(bw[w], m.Name), metricValues(cw[w], m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bm, cm := median(bv), median(cv)
			worse := 0.0
			if bm != 0 {
				worse = (cm - bm) / bm
				if m.Better == "higher" {
					worse = -worse
				}
			}
			spread := 0.0
			if bm != 0 {
				spread = (quantile(bv, 0.75) - quantile(bv, 0.25)) / bm
			}
			verdict := "no worse than bound"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			case spread > m.Bound:
				verdict = "unresolved (base spread exceeds bound)"
			}
			fmt.Printf("%-15s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", w, m.Name, bm, cm, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}

func metricValues(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
