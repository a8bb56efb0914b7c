package concurrent

import (
	"fmt"
	"sync/atomic"

	"repro/internal/kll"
	"repro/internal/sketch"
)

// kllState is one published version of the shared KLL sketch. The
// sketch behind sk is immutable from the moment the state is published:
// handoffs ShareClone it before inserting, and snapshots ShareClone it
// before querying (KLL queries build mutable sorted-view caches).
type kllState struct {
	epoch uint64
	sk    *kll.Sketch
}

// SharedKLL is a concurrent KLL sketch: per-writer buffers propagated
// by copy-on-write CAS publication. A handoff clones the current shared
// sketch, inserts the writer's buffer into the clone in one InsertBatch
// (bit-identical to serial Insert per value, so the published sketch is
// always a state some serial KLL could have reached), and
// compare-and-swaps the new version in; losing the race re-clones from
// the winner and retries. The clone is kll.ShareClone: it copies the
// level headers and only the levels the batch's compactions write, and
// shares the rest with the version it came from, which no one mutates.
// Readers never block writers and vice versa.
type SharedKLL struct {
	state   atomic.Pointer[kllState]
	writers []*Writer
	bufSize int
}

var _ Shared = (*SharedKLL)(nil)

// NewKLL returns a shared KLL sketch with max compactor size k (see
// kll.DefaultK), writers handles and per-writer buffer capacity
// bufSize (DefaultBufferSize when <= 0). It panics if k < 2 (as
// kll.New does) or writers < 1.
func NewKLL(k, writers, bufSize int) *SharedKLL {
	if writers < 1 {
		panic(fmt.Sprintf("concurrent: writers must be >= 1, got %d", writers))
	}
	if bufSize <= 0 {
		bufSize = DefaultBufferSize
	}
	s := &SharedKLL{bufSize: bufSize}
	s.state.Store(&kllState{epoch: 0, sk: kll.New(k)})
	s.writers = make([]*Writer, writers)
	for i := range s.writers {
		s.writers[i] = newWriter(s, bufSize)
	}
	return s
}

// Writer implements Shared.
func (s *SharedKLL) Writer(i int) *Writer { return s.writers[i] }

// NumWriters implements Shared.
func (s *SharedKLL) NumWriters() int { return len(s.writers) }

// BufferSize implements Shared.
func (s *SharedKLL) BufferSize() int { return s.bufSize }

// MaxRelaxation implements Shared.
func (s *SharedKLL) MaxRelaxation() uint64 {
	return uint64(len(s.writers)) * uint64(s.bufSize)
}

// flushBuffer implements bufSink: copy-on-write CAS publication of one
// writer's buffer.
func (s *SharedKLL) flushBuffer(vals []float64) {
	for {
		cur := s.state.Load()
		next := cur.sk.ShareClone()
		next.InsertBatch(vals)
		if s.state.CompareAndSwap(cur, &kllState{epoch: cur.epoch + 1, sk: next}) {
			break
		}
		recordCASRetry()
	}
	recordHandoff(len(vals))
}

// Snapshot implements Shared. The returned view is a private
// ShareClone of the published sketch: KLL queries lazily build
// sorted-view caches, so handing out the shared instance itself would
// race reader against reader. Queries write no level, so the view
// copies none.
func (s *SharedKLL) Snapshot() sketch.Quantiler {
	st := s.state.Load()
	recordSnapshot()
	return &Snapshot{Quantiler: st.sk.ShareClone(), epoch: st.epoch}
}

// Epoch implements Shared.
func (s *SharedKLL) Epoch() uint64 { return s.state.Load().epoch }

// Count implements Shared.
func (s *SharedKLL) Count() uint64 { return s.state.Load().sk.Count() }

// Footprint implements Shared: the published sketch's footprint plus
// the writer buffers' full capacity (they fill and drain continuously,
// so capacity, not length, is the resident cost).
func (s *SharedKLL) Footprint() int {
	return s.state.Load().sk.Footprint() + len(s.writers)*s.bufSize*8
}

// Flush implements Shared. Quiescent-only: see the interface contract.
func (s *SharedKLL) Flush() {
	for _, w := range s.writers {
		w.Flush()
	}
}
