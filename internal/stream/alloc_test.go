package stream

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/ddsketch"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// TestMinHeapAllocs pins the //sketch:hotpath contract on the generic
// heap: once the backing array has capacity, a Push/Pop cycle must not
// allocate — the whole point of replacing container/heap, which boxes
// every element through `any` on both operations.
func TestMinHeapAllocs(t *testing.T) {
	var h minHeap[Event]
	events := make([]Event, 256)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range events {
		state = state*6364136223846793005 + 1442695040888963407
		events[i] = Event{
			GenTime: time.Duration(state >> 40),
			Arrival: time.Duration(state >> 38),
			Value:   float64(i),
		}
	}
	for _, e := range events {
		h.Push(e) // warm capacity
	}
	for h.Len() > 0 {
		h.Pop()
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, e := range events {
			h.Push(e)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if avg > 0 {
		t.Errorf("minHeap Push/Pop cycle allocates %.1f times per 256 events, want 0", avg)
	}
}

// TestArrivalQueueAllocs pins the //sketch:hotpath contract on the
// arrival queue: once its node pool and spill heap have grown to the
// in-flight peak, a steady-state Push/PopUntil cycle allocates nothing.
// The delays repeat with a fixed period, so after one warm-up period
// every later period needs exactly the pool it already has; a few go
// past the ring's horizon to cover the spill and migration path.
func TestArrivalQueueAllocs(t *testing.T) {
	const interval = 20 * time.Microsecond
	horizon := interval * queueBucketIntervals * queueBuckets // at least the ring's reach
	delays := make([]time.Duration, 4096)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range delays {
		state = state*6364136223846793005 + 1442695040888963407
		delays[i] = time.Duration(state>>40) % (50 * time.Millisecond)
		if i%100 == 0 {
			delays[i] = 2 * horizon
		}
	}
	q := newArrivalQueue(interval)
	i := 0
	cycle := func() {
		for range delays {
			gen := time.Duration(i) * interval
			q.Push(Event{GenTime: gen, Arrival: gen + delays[i%len(delays)], Value: float64(i)})
			for {
				if _, ok := q.PopUntil(gen); !ok {
					break
				}
			}
			i++
		}
	}
	// Warm past the longest delay, which spans 16 periods.
	period := interval * time.Duration(len(delays))
	for w := time.Duration(0); w <= 2*horizon+period; w += period {
		cycle()
	}
	avg := testing.AllocsPerRun(20, cycle)
	if avg > 0 {
		t.Errorf("arrivalQueue Push/PopUntil cycle allocates %.1f times per %d events, want 0", avg, len(delays))
	}
}

// TestCoordinatorInsertAllocs pins the //sketch:hotpath contract on the
// coordinator's per-event batch append, serial path: once every
// partition's sketch holds the values' buckets, appending an event to
// its partition's pending batch, and inserting each full batch inline,
// allocates nothing — with metrics off, and with metrics wired, where
// each full batch also publishes the counters.
func TestCoordinatorInsertAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		met  *obs.EngineMetrics
	}{
		{"metrics-off", nil},
		{"metrics-on", obs.NewRegistry().Engine()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const parts = 4
			eng, err := NewEngine(Config{
				WindowSize: time.Second,
				Rate:       1000,
				NumWindows: 1,
				Partitions: parts,
				Values:     datagen.NewUniform(1, 2, 1),
				Builder:    func() sketch.Sketch { return ddsketch.New(0.01) },
				Metrics:    tc.met,
			})
			if err != nil {
				t.Fatal(err)
			}
			rs, err := eng.newRunState(func(WindowResult) {})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.sink.close()
			events := make([]Event, 4*parts*batchSize)
			for i := range events {
				events[i] = Event{Value: float64(1 + i%97), Partition: i % parts}
			}
			w := &windowState{}
			cycle := func() {
				for _, ev := range events {
					rs.insert(w, 0, ev)
				}
			}
			cycle() // warm: builds the partition sketches and their buckets
			avg := testing.AllocsPerRun(20, cycle)
			if avg > 0 {
				t.Errorf("coordinator insert allocates %.1f times per %d events, want 0", avg, len(events))
			}
			rs.flush()
			sks, _ := rs.sink.partials(0)
			var n uint64
			for _, sk := range sks {
				n += sk.Count()
			}
			if n != uint64(rs.stats.Accepted) {
				t.Fatalf("partition sketches hold %d events, want all %d accepted", n, rs.stats.Accepted)
			}
			if tc.met != nil && tc.met.Inserted.Load() != rs.stats.Accepted {
				t.Errorf("inserted counter %d after the flush, want %d", tc.met.Inserted.Load(), rs.stats.Accepted)
			}
		})
	}
}

// TestRunStateSizeClass pins runState under the 704-byte heap slot its
// doc comment explains: one word more and every run's set-up allocates
// from a colder size class.
func TestRunStateSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(runState{}); size > 696 {
		t.Errorf("runState is %d bytes, want at most 696", size)
	}
}
