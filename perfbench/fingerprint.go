package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// fingerprint identifies the host a result was measured on. Results are
// comparable only when the host fields match; the commit tells the two
// sides of a comparison apart.
type fingerprint struct {
	CPUModel    string  `json:"cpu_model"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	OS          string  `json:"os"`
	Arch        string  `json:"arch"`
	Commit      string  `json:"commit"`
	ClockPairNS float64 `json:"clock_pair_ns"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s, time.Now pair %.1f ns",
		f.CPUModel, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.OS, f.Arch, f.Commit, f.ClockPairNS)
}

// hostFingerprint measures this host. The commit comes from the
// PERFBENCH_COMMIT environment variable (run.sh sets it from git).
func hostFingerprint() fingerprint {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		CPUModel:    cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		Commit:      commit,
		ClockPairNS: clockPairNS(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// clockPairTolerance is how far two hosts' time.Now pair costs may
// differ before their results count as different hosts: a different
// clock source or virtualization layer moves it by far more.
const clockPairTolerance = 1.5

// sameHost reports why two fingerprints are not comparable, or "" when
// they are.
func sameHost(a, b fingerprint) string {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU model %q vs %q", a.CPUModel, b.CPUModel)
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion)
	case a.OS != b.OS || a.Arch != b.Arch:
		return fmt.Sprintf("platform %s/%s vs %s/%s", a.OS, a.Arch, b.OS, b.Arch)
	case a.ClockPairNS > 0 && b.ClockPairNS > 0 &&
		(a.ClockPairNS/b.ClockPairNS > clockPairTolerance || b.ClockPairNS/a.ClockPairNS > clockPairTolerance):
		return fmt.Sprintf("time.Now pair %.1f ns vs %.1f ns", a.ClockPairNS, b.ClockPairNS)
	}
	return ""
}
