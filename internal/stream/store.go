package stream

import (
	"fmt"
	"sort"

	"repro/internal/budget"
	"repro/internal/checkpoint"
	"repro/internal/concurrent"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// partStore holds the partition-local sketches of a run's open windows,
// keyed by sink key (pane index, or a session's key) and indexed by
// global partition. The serial path is one store owning every partition,
// driven inline as the engine's partialSink; on the parallel path each
// worker owns one store for its partitions (p % workers) and drives it
// from its channel (parallel.go). Both paths therefore build, track,
// insert, degrade, fire and seal partition sketches through the same
// code.
type partStore struct {
	builder sketch.Builder
	parts   int // partition count of the run
	worker  int // fault-hook worker index: 0 on the serial path
	open    map[int]*openParts
	// gov tracks every partition sketch under win·parts+part from
	// creation to its fire; nil without a budget.
	gov    *budget.Governor
	met    *obs.EngineMetrics
	shared *concurrent.Writer // nil without Config.SharedSketch

	faults     *faultinject.Plan // nil disables the fault hooks
	inserted   int64             // store-local insert count (fault hooks)
	partEvents []int64           // per-partition insert counts (fault hooks)
}

// openParts is one open window key's partition sketches (nil entries
// for partitions that saw no events) and the budget degradations
// applied to them so far.
type openParts struct {
	sks      []sketch.Sketch
	degrades int
}

func newPartStore(builder sketch.Builder, parts, worker int, gov *budget.Governor, met *obs.EngineMetrics, faults *faultinject.Plan, shared concurrent.Shared) *partStore {
	s := &partStore{
		builder: builder,
		parts:   parts,
		worker:  worker,
		open:    make(map[int]*openParts),
		gov:     gov,
		met:     met,
		faults:  faults,
	}
	if shared != nil {
		s.shared = shared.Writer(worker)
	}
	if faults != nil {
		s.partEvents = make([]int64, parts)
	}
	return s
}

// govID is the governor tracking id of (win, part): deterministic, so
// degradation order is reproducible run to run.
func (s *partStore) govID(win, part int) int64 {
	return int64(win)*int64(s.parts) + int64(part)
}

// entry returns window win's partitions, opening them on first use.
func (s *partStore) entry(win int) *openParts {
	op := s.open[win]
	if op == nil {
		op = &openParts{sks: make([]sketch.Sketch, s.parts)}
		s.open[win] = op
	}
	return op
}

// sketchFor returns the sketch of (win, part), building and tracking it
// on first use.
func (s *partStore) sketchFor(win, part int) sketch.Sketch {
	op := s.entry(win)
	if op.sks[part] == nil {
		op.sks[part] = s.builder()
		s.gov.Track(s.govID(win, part), op.sks[part])
	}
	return op.sks[part]
}

// onEvent runs the fault hooks for the store's next insert into part.
func (s *partStore) onEvent(part int) {
	s.faults.OnEvent(s.worker, part, s.inserted, s.partEvents[part])
	s.inserted++
	s.partEvents[part]++
}

// insertBatch implements partialSink: it adds one partition's batch.
// Each run of consecutive events of one window key goes to its sketch
// in one sketch.InsertAll call, after the fault hooks have counted its
// values; the batch is fed to the shared sketch whole. The emptied
// batch is returned for reuse.
func (s *partStore) insertBatch(b *eventBatch) *eventBatch {
	part := int(b.part)
	if s.shared != nil {
		s.shared.InsertBatch(b.vals)
	}
	for i := 0; i < len(b.wins); {
		j := i + 1
		for j < len(b.wins) && b.wins[j] == b.wins[i] {
			j++
		}
		if s.faults != nil {
			for range b.vals[i:j] {
				s.onEvent(part)
			}
		}
		sketch.InsertAll(s.sketchFor(int(b.wins[i]), part), b.vals[i:j])
		i = j
	}
	b.reset()
	return b
}

// degraded is the governor's onDegrade callback for the store's
// sketches: it counts the degradation against the sketch's window key,
// reported when that key fires.
func (s *partStore) degraded(id int64) {
	if s.met != nil {
		s.met.Degradations.Inc()
	}
	if op := s.open[int(id/int64(s.parts))]; op != nil {
		op.degrades++
	}
}

// partials implements partialSink: window win's partition sketches
// (nil when it has none) and their degradation count, removed from the
// store and its governor.
func (s *partStore) partials(win int) ([]sketch.Sketch, int) {
	op := s.open[win]
	if op == nil {
		return nil, 0
	}
	delete(s.open, win)
	for part := range op.sks {
		s.gov.Untrack(s.govID(win, part))
	}
	return op.sks, op.degrades
}

// snapshot implements partialSink: every open sketch sealed through
// sealPartial, in ascending (window, partition) order, so which failure
// is reported when several seals fail does not depend on map order. A
// panic is returned as a *PanicError, so a worker sealing its store
// always answers the snapshot barrier.
func (s *partStore) snapshot() (out map[int][][]byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, asPanicError(r)
		}
	}()
	wins := make([]int, 0, len(s.open))
	for win := range s.open {
		wins = append(wins, win)
	}
	sort.Ints(wins)
	out = make(map[int][][]byte, len(wins))
	for _, win := range wins {
		blobs := make([][]byte, s.parts)
		for part, sk := range s.open[win].sks {
			if sk == nil {
				continue
			}
			if blobs[part], err = sealPartial(sk); err != nil {
				return nil, err
			}
		}
		out[win] = blobs
	}
	return out, nil
}

// adopt seeds (win, part) with a decoded sketch and tracks it.
func (s *partStore) adopt(win, part int, sk sketch.Sketch) {
	s.entry(win).sks[part] = sk
	s.gov.Track(s.govID(win, part), sk)
}

// restore implements partialSink.
func (s *partStore) restore(win int, parts []sketch.Sketch) {
	for part, sk := range parts {
		if sk != nil {
			s.adopt(win, part, sk)
		}
	}
}

// err implements partialSink: an inline store fails by panicking on the
// engine goroutine, which the run loop recovers.
func (s *partStore) err() error { return nil }

// close implements partialSink: flush the shared-sketch writer so
// post-run snapshots of the shared sketch are exact.
func (s *partStore) close() {
	if s.shared != nil {
		s.shared.Flush()
	}
}

// sealPartial serializes one partition sketch and wraps it in a named,
// checksummed checkpoint envelope.
func sealPartial(sk sketch.Sketch) ([]byte, error) {
	blob, err := sk.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("stream: snapshot partial: %w", err)
	}
	return checkpoint.Seal(sk.Name(), blob)
}
