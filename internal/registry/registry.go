// Package registry enumerates every production sketch implementation in
// this repository behind one uniform list, so cross-cutting test layers —
// shared contract tests, metamorphic property tests under the invariants
// build tag, and the native fuzz targets — cover each sketch without
// maintaining per-package copies of the same harness.
//
// Each entry pairs a stable name with a sketch.Builder producing a fresh,
// identically configured instance. Configurations mirror the defaults the
// study's harness uses (cmd/sketchtool, internal/harness), scaled where
// needed so property tests stay fast.
//
// kllpm is deliberately absent: its delete-capable Merge takes the
// concrete *kllpm.Sketch and it has no binary encoding, so it does not
// implement sketch.Sketch.
package registry

import (
	"fmt"

	"repro/internal/dcs"
	"repro/internal/ddsketch"
	"repro/internal/gk"
	"repro/internal/hdr"
	"repro/internal/kll"
	"repro/internal/moments"
	"repro/internal/mrl"
	"repro/internal/req"
	"repro/internal/sketch"
	"repro/internal/tdigest"
	"repro/internal/uddsketch"
)

// Entry is one registered sketch implementation.
type Entry struct {
	// Name uniquely identifies the configuration; it extends the
	// sketch's own Name() when one type is registered twice (e.g.
	// "ddsketch-collapsing").
	Name string

	// New builds a fresh, empty sketch with this entry's configuration.
	New sketch.Builder

	// Serde reports whether MarshalBinary/UnmarshalBinary are
	// functional. DCS stubs them out (its Count-Sketch tables make
	// state transfer impractical at the paper's configurations), so
	// serde-focused layers skip entries with Serde == false.
	Serde bool
}

// must unwraps constructors that validate their parameters; the registry
// only passes fixed known-good configurations, so it panics on error.
func must[T sketch.Sketch](s T, err error) sketch.Sketch {
	if err != nil {
		panic(fmt.Sprintf("registry: constructor rejected fixed config: %v", err))
	}
	return s
}

// Entries returns the full registry. The slice is freshly allocated on
// every call, and builders never share state, so callers may mutate
// freely (the fuzz targets run entries concurrently).
func Entries() []Entry {
	return []Entry{
		{"kll", func() sketch.Sketch { return kll.New(kll.DefaultK) }, true},
		{"req", func() sketch.Sketch { return req.New(12, true) }, true},
		{"req-lra", func() sketch.Sketch { return req.New(12, false) }, true},
		{"gk", func() sketch.Sketch { return gk.New(0.001) }, true},
		{"ddsketch", func() sketch.Sketch { return ddsketch.New(0.01) }, true},
		{"ddsketch-collapsing", func() sketch.Sketch { return ddsketch.NewCollapsing(0.01, 1024) }, true},
		{"ddsketch-paginated", func() sketch.Sketch { return ddsketch.NewPaginated(0.01) }, true},
		{"uddsketch", func() sketch.Sketch { return uddsketch.New(0.01, 1024) }, true},
		{"uddsketch-array", func() sketch.Sketch { return must(uddsketch.NewDense(0.01, 1024)) }, true},
		{"moments", func() sketch.Sketch { return moments.New(12) }, true},
		{"moments-log", func() sketch.Sketch { return moments.NewWithTransform(12, moments.TransformLog) }, true},
		{"moments-full", func() sketch.Sketch { return moments.NewFull(12) }, true},
		{"tdigest", func() sketch.Sketch { return tdigest.New(tdigest.DefaultCompression) }, true},
		{"hdr", func() sketch.Sketch { return must(hdr.New(1, 100_000_000, 3)) }, true},
		{"mrl", func() sketch.Sketch { return mrl.New(mrl.DefaultBuffers, mrl.DefaultK) }, true},
		{"dcs", func() sketch.Sketch { return must(dcs.NewFloat(0.001, 1, 16, 4, 512, 0xd5c0ffee)) }, false},
	}
}
