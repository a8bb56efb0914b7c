package concurrent

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/ddsketch"
	"repro/internal/kll"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// testValues returns n deterministic pseudo-random positive values.
func testValues(n int) []float64 {
	xs := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		xs[i] = 1 + float64(state>>11)/float64(1<<53)*999
	}
	return xs
}

// exactQuantile returns the ⌈q·n⌉-th order statistic of sorted xs, the
// same rank convention the sketches use.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestSharedKLLSingleWriterMatchesSerial: with one writer, handoffs
// replay the stream in order through the serial Insert path, so after
// Flush the shared sketch must be indistinguishable from a serial KLL
// fed the same stream — identical count, identical quantile estimates
// and identical serialized bytes (same samples, same compaction coin
// flips) — at every buffer size, including one value per handoff.
func TestSharedKLLSingleWriterMatchesSerial(t *testing.T) {
	xs := testValues(20000)
	ref := kll.New(kll.DefaultK)
	for _, x := range xs {
		ref.Insert(x)
	}
	refBlob, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, bufSize := range []int{1, 7, 512} {
		t.Run(fmt.Sprintf("buf=%d", bufSize), func(t *testing.T) {
			sh := NewKLL(kll.DefaultK, 1, bufSize)
			w := sh.Writer(0)
			for _, x := range xs {
				w.Insert(x)
			}
			sh.Flush()
			blob, err := sh.state.Load().sk.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, refBlob) {
				t.Errorf("published sketch serializes differently from the serial reference")
			}
			snap := sh.Snapshot()
			if snap.Count() != ref.Count() {
				t.Fatalf("count: shared %d, serial %d", snap.Count(), ref.Count())
			}
			for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
				got, err := snap.Quantile(q)
				if err != nil {
					t.Fatalf("shared quantile(%v): %v", q, err)
				}
				want, err := ref.Quantile(q)
				if err != nil {
					t.Fatalf("serial quantile(%v): %v", q, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("quantile(%v): shared %v, serial %v", q, got, want)
				}
			}
		})
	}
}

// TestSharedDDSketchMatchesSerialAfterFlush: DDSketch state is a bag
// of commuting counter increments, so after Flush a multi-writer
// shared sketch must answer bit-identically to a serial DDSketch fed
// the same multiset in any order.
func TestSharedDDSketchMatchesSerialAfterFlush(t *testing.T) {
	const alpha = 0.01
	xs := testValues(20000)
	// Mix in signs and zeros to cover all three routing arms.
	for i := range xs {
		switch i % 5 {
		case 3:
			xs[i] = -xs[i]
		case 4:
			xs[i] = 0
		}
	}
	ref := ddsketch.New(alpha)
	for _, x := range xs {
		ref.Insert(x)
	}
	sh, err := NewDDSketch(alpha, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		sh.Writer(i % 4).Insert(x)
	}
	sh.Flush()
	snap := sh.Snapshot()
	if snap.Count() != ref.Count() {
		t.Fatalf("count: shared %d, serial %d", snap.Count(), ref.Count())
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got, err := snap.Quantile(q)
		if err != nil {
			t.Fatalf("shared quantile(%v): %v", q, err)
		}
		want, err := ref.Quantile(q)
		if err != nil {
			t.Fatalf("serial quantile(%v): %v", q, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("quantile(%v): shared %v, serial %v", q, got, want)
		}
	}
	if r, err := snap.Rank(500); err != nil {
		t.Fatalf("rank: %v", err)
	} else if want, _ := ref.Rank(500); math.Float64bits(r) != math.Float64bits(want) {
		t.Errorf("rank(500): shared %v, serial %v", r, want)
	}
}

// TestDDSketchAggregatedFlushMatchesDirect: a buffer of aggMinBatch or
// more values takes the pre-aggregated handoff (one atomic add per
// distinct bucket), smaller buffers the direct per-value path. Both
// must produce the identical shared state, including when the data
// spans more than aggMaxUsed distinct buckets so the table spills.
func TestDDSketchAggregatedFlushMatchesDirect(t *testing.T) {
	const alpha = 0.01
	// Geometric sweep over ~18 decades plus signs and zeros: far more
	// than aggMaxUsed distinct buckets, forcing the spill arm.
	n := 4 * aggMinBatch
	xs := make([]float64, n)
	for i := range xs {
		x := math.Pow(10, -9+18*float64(i%aggMinBatch)/float64(aggMinBatch))
		switch i % 7 {
		case 5:
			x = -x
		case 6:
			x = 0
		}
		xs[i] = x
	}
	direct, err := NewDDSketch(alpha, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewDDSketch(alpha, 1, aggMinBatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		direct.Writer(0).Insert(x)
		agg.Writer(0).Insert(x)
	}
	direct.Flush()
	agg.Flush()
	ds, as := direct.Snapshot(), agg.Snapshot()
	if ds.Count() != as.Count() || as.Count() != uint64(n) {
		t.Fatalf("counts: direct %d, aggregated %d, want %d", ds.Count(), as.Count(), n)
	}
	for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.999, 1} {
		want, err := ds.Quantile(q)
		if err != nil {
			t.Fatalf("direct quantile(%v): %v", q, err)
		}
		got, err := as.Quantile(q)
		if err != nil {
			t.Fatalf("aggregated quantile(%v): %v", q, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("quantile(%v): aggregated %v, direct %v", q, got, want)
		}
	}
}

// TestRelaxationBound is the relaxation property test: while writers
// are mid-stream, every snapshot (a) reflects between inserted−W·B and
// inserted values, and (b) answers quantile queries within the
// sketch's own error budget of the exact quantile over the values it
// actually propagated — i.e. relaxation costs visibility of at most
// W·B items, never accuracy on the visible prefix.
func TestRelaxationBound(t *testing.T) {
	const (
		numWriters = 4
		bufSize    = 64
		n          = 10000
	)
	xs := testValues(n)
	for name, sh := range map[string]Shared{
		"kll": NewKLL(kll.DefaultK, numWriters, bufSize),
		"ddsketch": func() Shared {
			s, err := NewDDSketch(0.01, numWriters, bufSize)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			maxRelax := sh.MaxRelaxation()
			if maxRelax != numWriters*bufSize {
				t.Fatalf("MaxRelaxation = %d, want %d", maxRelax, numWriters*bufSize)
			}
			var propagated []float64 // multiset handed off so far, in checkable form
			pending := make([][]float64, numWriters)
			for i, x := range xs {
				w := i % numWriters
				sh.Writer(w).Insert(x)
				pending[w] = append(pending[w], x)
				if len(pending[w]) == bufSize {
					// The writer's buffer just flushed.
					propagated = append(propagated, pending[w]...)
					pending[w] = pending[w][:0]
				}
				if (i+1)%997 != 0 {
					continue
				}
				inserted := uint64(i + 1)
				snap := sh.Snapshot()
				c := snap.Count()
				if c != uint64(len(propagated)) {
					t.Fatalf("after %d inserts: snapshot count %d, propagated %d", inserted, c, len(propagated))
				}
				if c > inserted || c+maxRelax < inserted {
					t.Fatalf("after %d inserts: snapshot count %d outside [%d, %d]",
						inserted, c, inserted-min(inserted, maxRelax), inserted)
				}
				if c == 0 {
					continue
				}
				sorted := append([]float64(nil), propagated...)
				sort.Float64s(sorted)
				for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
					got, err := snap.Quantile(q)
					if err != nil {
						t.Fatalf("quantile(%v): %v", q, err)
					}
					exact := exactQuantile(sorted, q)
					switch name {
					case "ddsketch":
						// α-relative guarantee on the propagated multiset.
						if relErr := math.Abs(got-exact) / math.Abs(exact); relErr > 0.0101 {
							t.Errorf("after %d inserts, quantile(%v) = %v, exact %v, rel err %v > α",
								inserted, q, got, exact, relErr)
						}
					case "kll":
						// KLL's guarantee is on rank, not value: the
						// estimate's exact rank must be within εn of the
						// target (ε ≈ 1.7% at k=350 with generous slack
						// for this fixed seed).
						target := math.Ceil(q * float64(c))
						rank := float64(sort.SearchFloat64s(sorted, got) + 1)
						if math.Abs(rank-target) > 0.03*float64(c)+1 {
							t.Errorf("after %d inserts, quantile(%v) = %v has rank %v, target %v (n=%d)",
								inserted, q, got, rank, target, c)
						}
					}
				}
			}
			// At quiescence the relaxation collapses to zero.
			sh.Flush()
			if c := sh.Snapshot().Count(); c != n {
				t.Fatalf("after flush: count %d, want %d", c, n)
			}
		})
	}
}

// TestEpochMonotonic pins the freshness contract: the shared epoch
// counts handoffs, snapshots carry the epoch they observed, and both
// only move forward.
func TestEpochMonotonic(t *testing.T) {
	sh := NewKLL(kll.DefaultK, 2, 8)
	if sh.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d, want 0", sh.Epoch())
	}
	var last uint64
	for i := 0; i < 100; i++ {
		sh.Writer(i % 2).Insert(float64(i))
		e := sh.Epoch()
		if e < last {
			t.Fatalf("epoch went backward: %d after %d", e, last)
		}
		last = e
	}
	sh.Flush()
	snap := sh.Snapshot().(*Snapshot)
	if snap.Epoch() != sh.Epoch() {
		t.Fatalf("quiescent snapshot epoch %d, shared epoch %d", snap.Epoch(), sh.Epoch())
	}
	// 100 inserts over 2 writers with B=8: 12 full-buffer handoffs
	// plus 2 flush handoffs.
	if sh.Epoch() != 14 {
		t.Fatalf("epoch = %d, want 14", sh.Epoch())
	}
}

// TestSnapshotIsolation: a snapshot is a private immutable view —
// later inserts and handoffs must not leak into it.
func TestSnapshotIsolation(t *testing.T) {
	for name, mk := range map[string]func() Shared{
		"kll": func() Shared { return NewKLL(kll.DefaultK, 1, 4) },
		"ddsketch": func() Shared {
			s, err := NewDDSketch(0.01, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		t.Run(name, func(t *testing.T) {
			sh := mk()
			w := sh.Writer(0)
			for i := 0; i < 100; i++ {
				w.Insert(float64(i + 1))
			}
			sh.Flush()
			snap := sh.Snapshot()
			before, err := snap.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				w.Insert(1e6)
			}
			sh.Flush()
			if got := snap.Count(); got != 100 {
				t.Fatalf("old snapshot count changed to %d", got)
			}
			after, err := snap.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(before) != math.Float64bits(after) {
				t.Fatalf("old snapshot median drifted: %v -> %v", before, after)
			}
			if got := sh.Snapshot().Count(); got != 1100 {
				t.Fatalf("new snapshot count %d, want 1100", got)
			}
		})
	}
}

// TestWriterBufferedAndNaN: Buffered tracks the local buffer, NaNs are
// dropped before buffering (mirroring the serial sketches), and an
// empty flush is a no-op.
func TestWriterBufferedAndNaN(t *testing.T) {
	sh := NewKLL(kll.DefaultK, 1, 8)
	w := sh.Writer(0)
	w.Flush() // empty flush: no handoff
	if sh.Epoch() != 0 {
		t.Fatalf("empty flush advanced epoch to %d", sh.Epoch())
	}
	w.Insert(math.NaN())
	if w.Buffered() != 0 {
		t.Fatalf("NaN was buffered")
	}
	w.Insert(1)
	w.Insert(2)
	if w.Buffered() != 2 {
		t.Fatalf("Buffered = %d, want 2", w.Buffered())
	}
	w.Flush()
	if w.Buffered() != 0 || sh.Count() != 2 {
		t.Fatalf("after flush: buffered %d, count %d", w.Buffered(), sh.Count())
	}
}

// TestConcurrentWritersReaders is the in-package race smoke: writers
// hammer inserts while readers hammer snapshots and query them. Run
// with -race (the verify.sh concurrent gate does) it proves the
// publication protocol has no data races; the final assertions prove
// no values were lost.
func TestConcurrentWritersReaders(t *testing.T) {
	const (
		numWriters = 4
		numReaders = 3
		perWriter  = 5000
	)
	for name, mk := range map[string]func() Shared{
		"kll": func() Shared { return NewKLL(kll.DefaultK, numWriters, 64) },
		"ddsketch": func() Shared {
			s, err := NewDDSketch(0.01, numWriters, 64)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		t.Run(name, func(t *testing.T) {
			sh := mk()
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < numReaders; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastEpoch uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						snap := sh.Snapshot().(*Snapshot)
						if snap.Epoch() < lastEpoch {
							t.Errorf("snapshot epoch went backward: %d after %d", snap.Epoch(), lastEpoch)
							return
						}
						lastEpoch = snap.Epoch()
						if snap.Count() > 0 {
							if _, err := snap.Quantile(0.5); err != nil {
								t.Errorf("quantile on live snapshot: %v", err)
								return
							}
							if _, err := sketch.Quantiles(snap, []float64{0.25, 0.75}); err != nil {
								t.Errorf("quantiles on live snapshot: %v", err)
								return
							}
						}
					}
				}()
			}
			var writers sync.WaitGroup
			for i := 0; i < numWriters; i++ {
				writers.Add(1)
				go func(i int) {
					defer writers.Done()
					w := sh.Writer(i)
					base := float64(i * perWriter)
					for j := 0; j < perWriter; j++ {
						w.Insert(base + float64(j))
					}
					w.Flush()
				}(i)
			}
			writers.Wait()
			close(stop)
			wg.Wait()
			if c := sh.Snapshot().Count(); c != numWriters*perWriter {
				t.Fatalf("final count %d, want %d", c, numWriters*perWriter)
			}
		})
	}
}

// TestSharedFootprint pins the budget-governor accounting surface: a
// fresh shared sketch already charges its writer buffers at capacity,
// and the footprint grows as state is published (KLL samples, DDSketch
// counter pages).
func TestSharedFootprint(t *testing.T) {
	const writers, bufSize = 4, 256
	bufBytes := writers * bufSize * 8

	k := NewKLL(kll.DefaultK, writers, bufSize)
	if got := k.Footprint(); got < bufBytes {
		t.Errorf("fresh SharedKLL footprint %d < buffer capacity %d", got, bufBytes)
	}
	base := k.Footprint()
	w := k.Writer(0)
	for _, v := range testValues(8 * bufSize) {
		w.Insert(v)
	}
	if got := k.Footprint(); got <= base {
		t.Errorf("SharedKLL footprint did not grow after handoffs: %d <= %d", got, base)
	}

	d, err := NewDDSketch(0.01, writers, bufSize)
	if err != nil {
		t.Fatal(err)
	}
	base = d.Footprint()
	if base < bufBytes {
		t.Errorf("fresh SharedDDSketch footprint %d < buffer capacity %d", base, bufBytes)
	}
	w = d.Writer(0)
	for _, v := range testValues(4 * bufSize) {
		w.Insert(v)
	}
	if got := d.Footprint(); got <= base {
		t.Errorf("SharedDDSketch footprint did not grow after page installs: %d <= %d", got, base)
	}
}

// TestSharedKLLPublishedVersionsImmutable pins the contract the
// handoff's ShareClone rests on: nothing writes a published version
// again. An early snapshot borrows every sample array of the version it
// was taken from; writers then run thousands of handoffs beside readers
// that snapshot and query, and neither the early snapshot's serialized
// bytes nor its version's may move. Under -race (the verify.sh
// concurrent gate) it also proves that concurrent ShareClones of one
// version never write memory another goroutine reads.
func TestSharedKLLPublishedVersionsImmutable(t *testing.T) {
	const (
		numWriters = 3
		numReaders = 2
		warm       = 20000
		perWriter  = 40000
	)
	xs := testValues(warm + numWriters*perWriter)
	sh := NewKLL(kll.DefaultK, numWriters, 64)
	sh.Writer(0).InsertBatch(xs[:warm])
	early := sh.Snapshot().(*Snapshot).Quantiler.(*kll.Sketch)
	version := sh.state.Load().sk
	marshal := func(s *kll.Sketch) []byte {
		t.Helper()
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := marshal(version)
	if !bytes.Equal(marshal(early), want) {
		t.Fatal("snapshot bytes differ from the version it was taken from")
	}
	wantMedian, err := early.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for range numReaders {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sketch.Quantiles(sh.Snapshot(), []float64{0.01, 0.5, 0.99}); err != nil {
					t.Errorf("quantiles on live snapshot: %v", err)
					return
				}
			}
		}()
	}
	for i := range numWriters {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			w := sh.Writer(i)
			part := xs[warm+i*perWriter : warm+(i+1)*perWriter]
			for j, x := range part {
				if j%3 == 0 {
					w.InsertBatch(part[j : j+1])
				} else {
					w.Insert(x)
				}
			}
			w.Flush()
		}(i)
	}
	for range 50 {
		if got, err := early.Quantile(0.5); err != nil || got != wantMedian {
			t.Fatalf("early snapshot's median moved while writers ran: %v, %v; want %v", got, err, wantMedian)
		}
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if sh.Epoch() < 1000 {
		t.Fatalf("only %d handoffs ran; the test needs many", sh.Epoch())
	}
	if c := sh.Count(); c != uint64(len(xs)) {
		t.Fatalf("final count %d, want %d", c, len(xs))
	}
	if !bytes.Equal(marshal(early), want) {
		t.Error("the early snapshot's bytes moved after later handoffs")
	}
	if !bytes.Equal(marshal(version), want) {
		t.Error("a published version's bytes moved after later handoffs")
	}
}

// TestWriterInsertBatchMatchesInsert: InsertBatch copies runs of the
// buffer's free space instead of inserting value by value, and must be
// indistinguishable from Insert per value — the same handoffs at the
// same points (identical shared-sketch bytes and epoch), the same
// buffered tail, and the same count of rejected NaN and ±Inf values —
// over batches that end before, at and past the buffer's end.
func TestWriterInsertBatchMatchesInsert(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg.Concurrent())
	defer SetMetrics(nil)

	xs := testValues(6000)
	for i := 5; i < len(xs); i += 97 {
		xs[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
	}
	const bufSize = 64
	one, batch := NewKLL(kll.DefaultK, 1, bufSize), NewKLL(kll.DefaultK, 1, bufSize)
	w1, wb := one.Writer(0), batch.Writer(0)
	rejected := func() int64 { return reg.Concurrent().RejectedInput.Load() }
	for i, size := 0, 1; i < len(xs); size = size*7%(3*bufSize) + 1 {
		part := xs[i:min(i+size, len(xs))]
		i += len(part)
		before := rejected()
		for _, x := range part {
			w1.Insert(x)
		}
		perValue := rejected() - before
		wb.InsertBatch(part)
		if got := rejected() - before - perValue; got != perValue {
			t.Fatalf("batch of %d: InsertBatch rejected %d, Insert %d", len(part), got, perValue)
		}
		if wb.Buffered() != w1.Buffered() || batch.Epoch() != one.Epoch() {
			t.Fatalf("batch of %d: InsertBatch left %d buffered at epoch %d, Insert %d at %d",
				len(part), wb.Buffered(), batch.Epoch(), w1.Buffered(), one.Epoch())
		}
	}
	for _, sh := range []*SharedKLL{one, batch} {
		sh.Flush()
	}
	a, err := one.state.Load().sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batch.state.Load().sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("InsertBatch and Insert per value published different sketches")
	}
}
