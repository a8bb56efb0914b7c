package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunRejectsBadInput pins that flags a constructor would panic on
// and non-finite input values are reported as usage errors (exit 2)
// naming the problem, never a panic or a NaN answer.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		input string
		want  string
	}{
		{[]string{"-sketch", "kll", "-k", "1"}, "1\n", "-k must be >= 2"},
		{[]string{"-sketch", "req", "-k", "3"}, "1\n", "-k must be >= 4"},
		{[]string{"-sketch", "ddsketch", "-alpha", "0"}, "1\n", "-alpha must be in (0,1)"},
		{[]string{"-sketch", "ddsketch-paginated", "-alpha", "1"}, "1\n", "-alpha must be in (0,1)"},
		{[]string{"-sketch", "uddsketch", "-alpha", "NaN"}, "1\n", "-alpha must be in (0,1)"},
		{[]string{"-sketch", "ddsketch"}, "1\ninf\n3\n", `line 2: non-finite value "inf"`},
		{[]string{"-sketch", "kll"}, "1\n\n# note\n2 -Inf\n", `line 4: non-finite value "-Inf"`},
		{[]string{"-sketch", "req"}, "NaN\n", `line 1: non-finite value "NaN"`},
		{[]string{"-sketch", "kll"}, "1\nx\n", "line 2:"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, strings.NewReader(tc.input), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v on %q: exit %d, stderr %q; want exit 2 naming %q", tc.args, tc.input, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v on %q: printed %q despite the error", tc.args, tc.input, stdout.String())
		}
	}
}

// TestRunQuantiles drives the pipeline in-process on finite input:
// exit 0 and the requested quantiles, exact for KLL below its capacity.
func TestRunQuantiles(t *testing.T) {
	var in strings.Builder
	for i := 1; i <= 100; i++ {
		fmt.Fprintf(&in, "%d\n", i)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sketch", "kll", "-q", "0.5,0.99"}, strings.NewReader(in.String()), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if got, want := stdout.String(), "q0.5\t50\nq0.99\t99\n"; got != want {
		t.Errorf("output %q, want %q", got, want)
	}
}
