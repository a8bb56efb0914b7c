// Command sketchtool builds a quantile sketch over numbers read from
// stdin (one per line, blank lines and '#' comments skipped) and prints
// the requested quantiles — a pipeline-friendly way to use the library:
//
//	seq 1 100000 | sketchtool -sketch ddsketch -q 0.5,0.95,0.99
//	sketchtool -sketch kll -q 0.999 -rank 42.5 < latencies.txt
//
// With -serialize the sketch itself is written to stdout as binary
// (deserializable with -merge in a later invocation), demonstrating the
// cross-process mergeability workflow the study motivates.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ddsketch"
	"repro/internal/gk"
	"repro/internal/hdr"
	"repro/internal/kll"
	"repro/internal/moments"
	"repro/internal/mrl"
	"repro/internal/obs"
	"repro/internal/req"
	"repro/internal/sketch"
	"repro/internal/tdigest"
	"repro/internal/uddsketch"
)

// newSketch builds the named sketch, rejecting an alpha or k the
// constructors would panic on or silently replace.
func newSketch(name string, alpha float64, k int) (sketch.Sketch, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("-alpha must be in (0,1), got %v", alpha)
	}
	switch name {
	case "ddsketch", "ddsketch-cubic":
		// ddsketch-cubic is kept for compatibility: the cubic mapping is
		// ddsketch's default now, so both names build the same sketch.
		return ddsketch.NewWithStore(alpha, func() ddsketch.Store { return ddsketch.NewDenseStore() })
	case "uddsketch":
		return uddsketch.NewChecked(alpha, 1024)
	case "kll":
		if k < 2 {
			return nil, fmt.Errorf("-k must be >= 2 for kll, got %d", k)
		}
		return kll.New(k), nil
	case "req", "req-lra":
		if k < 4 {
			return nil, fmt.Errorf("-k must be >= 4 for req, got %d", k)
		}
		return req.New(k, name == "req"), nil
	case "moments":
		return moments.New(12), nil
	case "moments-log":
		return moments.NewWithTransform(12, moments.TransformLog), nil
	case "tdigest":
		return tdigest.New(tdigest.DefaultCompression), nil
	case "gk":
		return gk.New(alpha), nil
	case "ddsketch-log":
		m, err := ddsketch.NewLogarithmic(alpha)
		if err != nil {
			return nil, err
		}
		return ddsketch.NewWithMapping(m, func() ddsketch.Store { return ddsketch.NewDenseStore() })
	case "ddsketch-paginated":
		return ddsketch.NewPaginated(alpha), nil
	case "hdr":
		return hdr.New(1, 100_000_000, 3)
	case "mrl":
		return mrl.New(mrl.DefaultBuffers, mrl.DefaultK), nil
	default:
		return nil, fmt.Errorf("unknown sketch %q (ddsketch, ddsketch-log, ddsketch-paginated, uddsketch, kll, req, req-lra, moments, moments-log, tdigest, gk, hdr, mrl)", name)
	}
}

func main() {
	// Subcommand dispatch before flag parsing: `sketchtool checkpoint
	// inspect|verify <paths>` examines checkpoint envelopes and stores.
	if len(os.Args) > 1 && os.Args[1] == "checkpoint" {
		os.Exit(checkpointCmd(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the quantile pipeline behind main; it returns the process
// exit code: 0 on success, 1 when reading, merging or querying fails,
// and 2 for bad flags or input values.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sketchtool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("sketch", "ddsketch", "sketch type")
		alpha     = fs.Float64("alpha", 0.01, "relative accuracy (ddsketch/uddsketch) or rank error (gk)")
		k         = fs.Int("k", 0, "size parameter for kll (default 350) and req (default 30)")
		qList     = fs.String("q", "0.5,0.9,0.95,0.99", "comma-separated quantiles to print")
		rankOf    = fs.Float64("rank", 0, "also print the rank of this value (0 disables)")
		serialize = fs.Bool("serialize", false, "write the binary sketch to stdout instead of quantiles")
		mergeIn   = fs.String("merge", "", "comma-separated files holding serialized sketches to merge in")
		stats     = fs.Bool("stats", false, "print sketch statistics (count, memory) to stderr")
		metricsF  = fs.Bool("metrics", false, "record sketch metrics (inserts, compactions, collapses, ...) and dump them to stderr at exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "sketchtool:", err)
		return code
	}

	var reg *obs.Registry
	if *metricsF {
		reg = obs.NewRegistry()
		core.EnableMetrics(reg)
	}
	if *k == 0 {
		if *name == "kll" {
			*k = kll.DefaultK
		} else {
			*k = req.DefaultSectionSize
		}
	}

	sk, err := newSketch(*name, *alpha, *k)
	if err != nil {
		return fail(2, err)
	}

	in := bufio.NewScanner(stdin)
	in.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lines := 0
	for in.Scan() {
		lines++
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, field := range strings.Fields(line) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return fail(2, fmt.Errorf("line %d: %w", lines, err))
			}
			// The engine and concurrent.Writer reject non-finite values
			// too: a sketch would drop a NaN silently and turn an
			// infinity into NaN answers.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fail(2, fmt.Errorf("line %d: non-finite value %q", lines, field))
			}
			sk.Insert(v)
		}
	}
	if err := in.Err(); err != nil {
		return fail(1, err)
	}

	for _, path := range splitNonEmpty(*mergeIn) {
		blob, err := os.ReadFile(path)
		if err != nil {
			return fail(1, err)
		}
		other, err := newSketch(*name, *alpha, *k)
		if err != nil {
			return fail(2, err)
		}
		if err := other.UnmarshalBinary(blob); err != nil {
			return fail(1, fmt.Errorf("%s: %w", path, err))
		}
		if err := sk.Merge(other); err != nil {
			return fail(1, fmt.Errorf("merging %s: %w", path, err))
		}
	}

	if *stats {
		fmt.Fprintf(stderr, "sketch=%s count=%d memory=%dB\n", sk.Name(), sk.Count(), sk.MemoryBytes())
	}
	if reg != nil {
		if err := reg.WriteText(stderr); err != nil {
			return fail(1, err)
		}
	}

	if *serialize {
		blob, err := sk.MarshalBinary()
		if err != nil {
			return fail(1, err)
		}
		if _, err := stdout.Write(blob); err != nil {
			return fail(1, err)
		}
		return 0
	}

	var qvals []float64
	for _, qs := range splitNonEmpty(*qList) {
		q, err := strconv.ParseFloat(qs, 64)
		if err != nil {
			return fail(2, fmt.Errorf("bad quantile %q: %w", qs, err))
		}
		qvals = append(qvals, q)
	}
	if len(qvals) > 0 {
		vals, err := sketch.Quantiles(sk, qvals)
		if err != nil {
			return fail(1, err)
		}
		for i, q := range qvals {
			fmt.Fprintf(stdout, "q%v\t%g\n", q, vals[i])
		}
	}
	if *rankOf != 0 {
		r, err := sk.Rank(*rankOf)
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "rank(%g)\t%.6f\n", *rankOf, r)
	}
	return 0
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
