// Package stream is the stream-processing substrate standing in for
// Apache Flink in the accuracy experiments (paper Sec 4.2): event-time
// tumbling windows over a source producing events at a fixed rate, with a
// configurable network-delay model, watermark-based window firing, and
// dropped late events (Sec 2.5–2.6).
//
// Time is fully simulated — events carry virtual generation and arrival
// timestamps and the engine processes them in arrival order — so a
// "220-second" Flink run executes as fast as the inserts do while
// preserving exactly the event-selection semantics (which events make it
// into which window, and which are dropped as late) of the wall-clock
// system.
//
// The engine also exercises mergeability the way a distributed SPE does:
// events are partitioned across P partition-local sketches that are
// merged when the window fires (Sec 2.4).
package stream

import (
	"time"

	"repro/internal/datagen"
)

// Event is one stream element.
type Event struct {
	// GenTime is the event-generation (event-time) timestamp, relative to
	// the start of the run.
	GenTime time.Duration
	// Arrival is GenTime plus the simulated network delay; the engine
	// consumes events in Arrival order.
	Arrival time.Duration
	// Value is the measurement carried by the event.
	Value float64
	// Partition is the engine partition that will absorb the event.
	Partition int
}

// Before orders events by arrival time, breaking ties by generation
// time so replay is deterministic. It is the order in which the
// engine's arrival queue releases in-flight events.
func (e Event) Before(other Event) bool {
	if e.Arrival != other.Arrival {
		return e.Arrival < other.Arrival
	}
	return e.GenTime < other.GenTime
}

// DelayModel produces per-event network delays (the gap between event
// generation at the source and ingestion by the SPE, Sec 2.5).
type DelayModel interface {
	// Delay returns the next event's network delay (non-negative).
	Delay() time.Duration
}

// ZeroDelay is the no-late-data configuration: events arrive the instant
// they are generated.
type ZeroDelay struct{}

// Delay implements DelayModel.
func (ZeroDelay) Delay() time.Duration { return 0 }

// ConstantDelay delays every event by the same amount (shifts arrival
// order without reordering, so it never causes drops by itself).
type ConstantDelay struct{ D time.Duration }

// Delay implements DelayModel.
func (c ConstantDelay) Delay() time.Duration { return c.D }

// ExponentialDelay draws delays from an exponential distribution — the
// paper's late-data emulation, with 150 ms as the mean network delay
// (Sec 4.6). The exponential's long tail makes a small share of events
// miss their window.
type ExponentialDelay struct {
	src *datagen.Exponential
}

// NewExponentialDelay returns an exponential delay model with the given
// mean.
func NewExponentialDelay(mean time.Duration, seed uint64) *ExponentialDelay {
	return &ExponentialDelay{src: datagen.NewExponential(float64(mean), seed)}
}

// Delay implements DelayModel.
func (e *ExponentialDelay) Delay() time.Duration {
	d := time.Duration(e.src.Next())
	if d < 0 {
		d = 0
	}
	return d
}
