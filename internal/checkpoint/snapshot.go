package checkpoint

import (
	"fmt"

	"repro/internal/sketch"
)

// snapshotName is the envelope record name of engine snapshots.
const snapshotName = "engine-snapshot"

// Event mirrors one in-flight stream event (generated but not yet
// arrived when the snapshot was taken). Times are nanoseconds relative
// to the run start.
type Event struct {
	Gen       int64
	Arrival   int64
	Value     float64
	Partition int64
}

// WindowSnap captures one open window: its identity (the window or
// pane Index; for sessions the sink key, with the session's [Start,
// End) span), engine-side counters, optionally the collected raw
// values, and the sealed per-partition sketch blobs.
type WindowSnap struct {
	Index    int64
	Start    int64 // ns; sessions only
	End      int64 // ns; sessions only
	Accepted int64
	// HasValues distinguishes a nil Values slice (CollectValues off)
	// from an empty one, preserving the engine's emit semantics exactly.
	HasValues bool
	Values    []float64
	// Partials holds one sealed envelope per partition; nil entries are
	// partitions that saw no events.
	Partials [][]byte
}

// PaneSnap captures one sealed pane of a pane-sharing sliding run: the
// pane's engine-side counters, optionally its collected raw values,
// and the sealed merged pane sketch (nil for a pane holding counters
// but no inserts).
type PaneSnap struct {
	Index     int64
	Accepted  int64
	HasValues bool
	Values    []float64
	Sketch    []byte
}

// Snapshot is the engine state at a window-fire barrier: everything
// needed to resume the run and produce bit-identical remaining output.
// The source offset is Drawn — the resumed engine fast-forwards a fresh
// source by that many draws, which reproduces the exact remaining event
// sequence because events are a pure function of the seeds.
type Snapshot struct {
	// Seq is the number of windows fired before the snapshot (the
	// store sequence number).
	Seq uint64
	// SketchName is the builder product's Name(), checked on resume.
	SketchName string
	// Drawn counts source draws (events generated, including grace
	// events) before the snapshot.
	Drawn int64
	// Watermark is the engine watermark in ns (-1: none yet).
	Watermark int64
	// NextFire is the next window index to fire (for sessions, the
	// number of sessions fired).
	NextFire int64
	// Generated/Accepted/DroppedLate/RejectedInput mirror stream.Stats.
	Generated     int64
	Accepted      int64
	DroppedLate   int64
	RejectedInput int64
	// LateWindows/LateDrops are the per-window late-drop counts
	// (parallel slices, window index ascending).
	LateWindows []int64
	LateDrops   []int64
	// InFlight is the in-flight (generated, not yet processed) events in
	// the engine's pop order: ascending arrival, ties by generation
	// time. A sorted slice is also a valid binary min-heap, so a reader
	// may adopt it as one; older snapshots hold a heap's backing slice.
	InFlight []Event
	// Windows are the open (not yet fired) windows. Outside session
	// mode the entries are open panes, with Index holding the pane
	// index; a tumbling window is one pane, so the two coincide.
	Windows []WindowSnap
	// Panes are the sealed, still-referenced panes of a sliding run
	// (tumbling runs hold none at a snapshot). The section is encoded
	// only when non-empty, as an optional trailer after Windows, so
	// tumbling snapshots keep their historical byte layout and old
	// blobs still decode.
	Panes []PaneSnap
	// ShedBudget counts events shed by the memory-budget governor's
	// last rung, extending the accounting identity to
	// Generated == Accepted + DroppedLate + RejectedInput + ShedBudget.
	// It rides in an optional extension trailer (marker U32(0), which
	// no pane trailer can start with — pane counts are >= 1) written
	// only when non-zero, so unbudgeted snapshots keep their historical
	// byte layout. Per-window degradation counts are deliberately not
	// persisted: the degraded sketch state itself is exact in the
	// partial blobs, and the counts reset on resume.
	ShedBudget int64
}

// EncodeSnapshot serializes s and seals it in an "engine-snapshot"
// envelope. The record is sized first (encodedLen), so the envelope is
// the encoding's only allocation.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	buf, err := openEnvelope(snapshotName, encodedLen(s))
	if err != nil {
		return nil, err
	}
	w := sketch.AppendWriter(buf)
	w.U64(s.Seq)
	w.Blob([]byte(s.SketchName))
	w.I64(s.Drawn)
	w.I64(s.Watermark)
	w.I64(s.NextFire)
	w.I64(s.Generated)
	w.I64(s.Accepted)
	w.I64(s.DroppedLate)
	w.I64(s.RejectedInput)
	w.I64s(s.LateWindows)
	w.I64s(s.LateDrops)
	w.U32(uint32(len(s.InFlight)))
	for _, ev := range s.InFlight {
		w.I64(ev.Gen)
		w.I64(ev.Arrival)
		w.F64(ev.Value)
		w.I64(ev.Partition)
	}
	w.U32(uint32(len(s.Windows)))
	for _, win := range s.Windows {
		w.I64(win.Index)
		w.I64(win.Start)
		w.I64(win.End)
		w.I64(win.Accepted)
		if win.HasValues {
			w.Byte(1)
			w.F64s(win.Values)
		} else {
			w.Byte(0)
		}
		w.U32(uint32(len(win.Partials)))
		for _, blob := range win.Partials {
			if blob == nil {
				w.Byte(0)
				continue
			}
			w.Byte(1)
			w.Blob(blob)
		}
	}
	if len(s.Panes) > 0 {
		w.U32(uint32(len(s.Panes)))
		for _, p := range s.Panes {
			w.I64(p.Index)
			w.I64(p.Accepted)
			if p.HasValues {
				w.Byte(1)
				w.F64s(p.Values)
			} else {
				w.Byte(0)
			}
			if p.Sketch != nil {
				w.Byte(1)
				w.Blob(p.Sketch)
			} else {
				w.Byte(0)
			}
		}
	}
	if s.ShedBudget != 0 {
		w.U32(0) // extension-trailer marker; a pane count is never 0
		w.I64(s.ShedBudget)
	}
	return closeEnvelope(w.Bytes(), snapshotName), nil
}

// encodedLen is the exact length of EncodeSnapshot's record for s,
// field for field.
func encodedLen(s *Snapshot) int {
	values := func(has bool, vs []float64) int {
		if has {
			return 4 + 8*len(vs)
		}
		return 0
	}
	n := 8 + 4 + len(s.SketchName) + 7*8 +
		4 + 8*len(s.LateWindows) + 4 + 8*len(s.LateDrops) +
		4 + 32*len(s.InFlight) + 4
	for _, win := range s.Windows {
		n += 4*8 + 1 + values(win.HasValues, win.Values) + 4
		for _, blob := range win.Partials {
			n++
			if blob != nil {
				n += 4 + len(blob)
			}
		}
	}
	if len(s.Panes) > 0 {
		n += 4
		for _, p := range s.Panes {
			n += 2*8 + 1 + values(p.HasValues, p.Values) + 1
			if p.Sketch != nil {
				n += 4 + len(p.Sketch)
			}
		}
	}
	if s.ShedBudget != 0 {
		n += 4 + 8
	}
	return n
}

// DecodeSnapshot opens data's envelope (validating the checksum) and
// parses the snapshot record.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	name, payload, err := Open(data)
	if err != nil {
		return nil, err
	}
	if name != snapshotName {
		return nil, fmt.Errorf("%w: envelope holds %q, not an engine snapshot", ErrCorrupt, name)
	}
	r := sketch.NewReader(payload)
	s := &Snapshot{
		Seq:        r.U64(),
		SketchName: string(r.Blob()),
	}
	s.Drawn = r.I64()
	s.Watermark = r.I64()
	s.NextFire = r.I64()
	s.Generated = r.I64()
	s.Accepted = r.I64()
	s.DroppedLate = r.I64()
	s.RejectedInput = r.I64()
	s.LateWindows = r.I64s()
	s.LateDrops = r.I64s()
	if r.Err() != nil || len(s.LateWindows) != len(s.LateDrops) {
		return nil, ErrCorrupt
	}
	nEv := int(r.U32())
	if r.Err() != nil || nEv < 0 || nEv > maxCount(r, 32) {
		return nil, ErrCorrupt
	}
	s.InFlight = make([]Event, nEv)
	for i := range s.InFlight {
		s.InFlight[i] = Event{Gen: r.I64(), Arrival: r.I64(), Value: r.F64(), Partition: r.I64()}
	}
	nWin := int(r.U32())
	if r.Err() != nil || nWin < 0 || nWin > maxCount(r, 37) {
		return nil, ErrCorrupt
	}
	s.Windows = make([]WindowSnap, nWin)
	for i := range s.Windows {
		win := &s.Windows[i]
		win.Index = r.I64()
		win.Start = r.I64()
		win.End = r.I64()
		win.Accepted = r.I64()
		if r.Byte() == 1 {
			win.HasValues = true
			win.Values = r.F64s()
		}
		nPart := int(r.U32())
		if r.Err() != nil || nPart < 0 || nPart > maxCount(r, 1) {
			return nil, ErrCorrupt
		}
		win.Partials = make([][]byte, nPart)
		for p := range win.Partials {
			if r.Byte() == 1 {
				win.Partials[p] = r.Blob()
			}
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Optional pane trailer: present only for pane-sharing sliding
	// snapshots, absent in tumbling (and pre-pane) blobs. A leading
	// U32 of 0 is instead the extension-trailer marker (pane counts
	// are always >= 1).
	if r.Remaining() != 0 {
		nPane := int(r.U32())
		if r.Err() != nil || nPane < 0 || nPane > maxCount(r, 18) {
			return nil, ErrCorrupt
		}
		if nPane > 0 {
			s.Panes = make([]PaneSnap, nPane)
			for i := range s.Panes {
				p := &s.Panes[i]
				p.Index = r.I64()
				p.Accepted = r.I64()
				if r.Byte() == 1 {
					p.HasValues = true
					p.Values = r.F64s()
				}
				if r.Byte() == 1 {
					p.Sketch = r.Blob()
				}
			}
			if r.Err() != nil {
				return nil, r.Err()
			}
			// The pane trailer may itself be followed by the extension
			// trailer; consume its marker if present.
			if r.Remaining() != 0 {
				if r.U32() != 0 || r.Err() != nil {
					return nil, ErrCorrupt
				}
				nPane = 0
			}
		}
		if nPane == 0 {
			// Extension trailer (marker already consumed).
			s.ShedBudget = r.I64()
			if r.Err() != nil || s.ShedBudget < 0 {
				return nil, ErrCorrupt
			}
		}
	}
	if r.Remaining() != 0 {
		return nil, ErrCorrupt
	}
	return s, nil
}

// maxCount bounds a decoded element count by the bytes remaining for
// elements of at least elemSize bytes, rejecting absurd counts before
// any allocation.
func maxCount(r *sketch.Reader, elemSize int) int {
	return r.Remaining()/elemSize + 1
}
