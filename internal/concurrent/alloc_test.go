package concurrent

import (
	"runtime"
	"testing"

	"repro/internal/kll"
)

// TestInsertAllocsHandoffFree pins the //sketch:hotpath contract on
// Writer.Insert: a handoff-free insert is an append into a
// preallocated buffer and must allocate nothing. The buffer is sized
// far beyond the measured window so no flush fires mid-measurement.
func TestInsertAllocsHandoffFree(t *testing.T) {
	for name, w := range map[string]*Writer{
		"kll": NewKLL(200, 1, 1<<20).Writer(0),
		"ddsketch": func() *Writer {
			s, err := NewDDSketch(0.01, 1, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			return s.Writer(0)
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			x := 1.0
			if avg := testing.AllocsPerRun(10000, func() {
				w.Insert(x)
				x += 1.0
			}); avg != 0 {
				t.Errorf("handoff-free Insert allocates %.2f per call, want 0", avg)
			}
		})
	}
}

// TestDDSketchSustainedInsertAllocs pins the stronger DDSketch
// property: once the touched counter pages are installed, even the
// handoff itself is allocation-free (atomic adds into preallocated
// pages — no copy-on-write clone as in KLL). Small buffer so the
// measured window crosses many handoffs.
func TestDDSketchSustainedInsertAllocs(t *testing.T) {
	s, err := NewDDSketch(0.01, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer(0)
	for i := 0; i < 10000; i++ {
		w.Insert(1 + float64(i%1000)) // warm: install the pages this range touches
	}
	i := 0
	if avg := testing.AllocsPerRun(10000, func() {
		w.Insert(1 + float64(i%1000))
		i++
	}); avg != 0 {
		t.Errorf("sustained Insert (with handoffs) allocates %.2f per call, want 0", avg)
	}
}

// TestKLLHandoffAllocs bounds what one handoff into a SharedKLL holding
// 1M items allocates. The handoff ShareClones the published version, so
// it copies the level headers and only the levels its batch's
// compactions write (levels 0–6 on nearly every handoff) and shares the
// large top levels: 1,618 B in 13 allocations, where a deep Clone per
// handoff allocated 3,768 B in 29. The bound is half of the deep
// clone's each.
func TestKLLHandoffAllocs(t *testing.T) {
	const bufSize = DefaultBufferSize
	xs := testValues(1 << 20)
	sh := NewKLL(kll.DefaultK, 1, bufSize)
	w := sh.Writer(0)
	warm := 1_000_000 / bufSize * bufSize
	w.InsertBatch(xs[:warm])
	if w.Buffered() != 0 {
		t.Fatalf("%d values left buffered; every measured batch must be one whole handoff", w.Buffered())
	}
	off := warm
	handoff := func() {
		if off+bufSize > len(xs) {
			off = 0
		}
		w.InsertBatch(xs[off : off+bufSize])
		off += bufSize
	}
	const runs = 500
	allocs := testing.AllocsPerRun(runs, handoff)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		handoff()
	}
	runtime.ReadMemStats(&m1)
	perHandoff := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("one handoff at 1M items: %.1f allocs, %.0f B", allocs, perHandoff)
	if allocs > 14 {
		t.Errorf("a handoff allocates %.1f times, want <= 14", allocs)
	}
	if perHandoff > 1884 {
		t.Errorf("a handoff allocates %.0f B, want <= 1884", perHandoff)
	}
}
