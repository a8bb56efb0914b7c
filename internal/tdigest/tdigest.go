// Package tdigest implements the merging t-digest (Dunning & Ertl,
// arXiv:1902.04023): incoming values buffer until a merge pass
// re-clusters them into weighted centroids whose maximum size is governed
// by the scale function k(q) = (δ/2π)·asin(2q−1) — clusters near the
// extreme quantiles stay tiny (accurate) while mid-range clusters grow.
//
// The study surveys t-digest as related work (Sec 5.2.4) and excludes it
// from the main evaluation because it offers no hard error bound and its
// merges can degrade accuracy; this implementation exists so the
// `related` experiment can check those claims against the five evaluated
// sketches under the same harness.
package tdigest

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sketch"
)

// DefaultCompression is the customary δ = 100 (≈ 1% accuracy mid-range,
// much better at the tails).
const DefaultCompression = 100

// centroid is one weighted cluster.
type centroid struct {
	mean  float64
	count int64
}

// Sketch is a t-digest.
type Sketch struct {
	compression float64
	centroids   []centroid
	buffer      []float64
	bufCap      int
	count       int64
	min, max    float64
}

var _ sketch.Sketch = (*Sketch)(nil)

// New returns a t-digest with the given compression δ (≥ 10).
func New(compression float64) *Sketch {
	if compression < 10 {
		compression = 10
	}
	return &Sketch{
		compression: compression,
		bufCap:      int(8 * compression),
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Name implements sketch.Sketch.
func (s *Sketch) Name() string { return "tdigest" }

// Compression returns δ.
func (s *Sketch) Compression() float64 { return s.compression }

// Insert implements sketch.Sketch. NaNs are ignored.
func (s *Sketch) Insert(x float64) {
	if math.IsNaN(x) {
		return
	}
	s.buffer = append(s.buffer, x)
	s.count++
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if len(s.buffer) >= s.bufCap {
		s.flush()
	}
}

// kScale is the tail-sensitive scale function k1.
func (s *Sketch) kScale(q float64) float64 {
	return s.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// kInverse inverts kScale.
func (s *Sketch) kInverse(k float64) float64 {
	return (math.Sin(k*2*math.Pi/s.compression) + 1) / 2
}

// flush merges buffered values into the centroid list (the "merging
// t-digest" pass).
func (s *Sketch) flush() {
	if len(s.buffer) == 0 {
		return
	}
	pts := make([]centroid, 0, len(s.centroids)+len(s.buffer))
	pts = append(pts, s.centroids...)
	for _, v := range s.buffer {
		pts = append(pts, centroid{mean: v, count: 1})
	}
	s.buffer = s.buffer[:0]
	sort.Slice(pts, func(i, j int) bool { return pts[i].mean < pts[j].mean })

	var total int64
	for _, p := range pts {
		total += p.count
	}
	out := make([]centroid, 0, int(s.compression)+8)
	cur := pts[0]
	var done int64 // weight fully emitted before cur
	qLimit := s.kInverse(s.kScale(0) + 1)
	for _, p := range pts[1:] {
		prospective := float64(done+cur.count+p.count) / float64(total)
		if prospective <= qLimit {
			// Absorb p into cur (weighted mean update).
			cur.mean = (cur.mean*float64(cur.count) + p.mean*float64(p.count)) / float64(cur.count+p.count)
			cur.count += p.count
		} else {
			out = append(out, cur)
			done += cur.count
			qLimit = s.kInverse(s.kScale(float64(done)/float64(total)) + 1)
			cur = p
		}
	}
	out = append(out, cur)
	s.centroids = out
}

// Count implements sketch.Sketch.
func (s *Sketch) Count() uint64 { return uint64(s.count) }

// Quantile implements sketch.Sketch, interpolating between centroid
// means.
func (s *Sketch) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	s.flush()
	if q == 1 || len(s.centroids) == 1 {
		if q == 1 {
			return s.max, nil
		}
		return s.centroids[0].mean, nil
	}
	target := q * float64(s.count)
	var cum float64
	for i, c := range s.centroids {
		mid := cum + float64(c.count)/2
		if target <= mid || i == len(s.centroids)-1 {
			// Interpolate between the previous centroid's midpoint and
			// this one's.
			if i == 0 {
				frac := target / mid
				return s.min + frac*(c.mean-s.min), nil
			}
			prev := s.centroids[i-1]
			prevMid := cum - float64(prev.count)/2
			frac := (target - prevMid) / (mid - prevMid)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return prev.mean + frac*(c.mean-prev.mean), nil
		}
		cum += float64(c.count)
	}
	return s.max, nil
}

// Rank implements sketch.Sketch.
func (s *Sketch) Rank(x float64) (float64, error) {
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	s.flush()
	if x < s.min || math.IsNaN(x) {
		return 0, nil
	}
	if x >= s.max {
		return 1, nil
	}
	var cum float64
	for i, c := range s.centroids {
		if x < c.mean {
			if i == 0 {
				frac := (x - s.min) / (c.mean - s.min)
				return frac * float64(c.count) / 2 / float64(s.count), nil
			}
			prev := s.centroids[i-1]
			prevMid := cum - float64(prev.count)/2
			mid := cum + float64(c.count)/2
			frac := (x - prev.mean) / (c.mean - prev.mean)
			return (prevMid + frac*(mid-prevMid)) / float64(s.count), nil
		}
		cum += float64(c.count)
	}
	return 1, nil
}

// Merge implements sketch.Sketch by feeding the other digest's centroids
// through a merge pass. Note the paper's caveat: t-digest merges carry no
// guarantee and can degrade accuracy (Sec 5.2.4).
func (s *Sketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into tdigest", sketch.ErrIncompatible, other.Name())
	}
	oc := o.clone()
	oc.flush()
	s.flush()
	s.centroids = append(s.centroids, oc.centroids...)
	sort.Slice(s.centroids, func(i, j int) bool { return s.centroids[i].mean < s.centroids[j].mean })
	s.count += oc.count
	if oc.min < s.min {
		s.min = oc.min
	}
	if oc.max > s.max {
		s.max = oc.max
	}
	s.flushCentroids()
	return nil
}

// flushCentroids re-clusters the (sorted) centroid list in place.
func (s *Sketch) flushCentroids() {
	pts := s.centroids
	if len(pts) == 0 {
		return
	}
	var total int64
	for _, p := range pts {
		total += p.count
	}
	out := make([]centroid, 0, int(s.compression)+8)
	cur := pts[0]
	var done int64
	qLimit := s.kInverse(s.kScale(0) + 1)
	for _, p := range pts[1:] {
		prospective := float64(done+cur.count+p.count) / float64(total)
		if prospective <= qLimit {
			cur.mean = (cur.mean*float64(cur.count) + p.mean*float64(p.count)) / float64(cur.count+p.count)
			cur.count += p.count
		} else {
			out = append(out, cur)
			done += cur.count
			qLimit = s.kInverse(s.kScale(float64(done)/float64(total)) + 1)
			cur = p
		}
	}
	out = append(out, cur)
	s.centroids = out
}

func (s *Sketch) clone() *Sketch {
	c := *s
	c.centroids = append([]centroid(nil), s.centroids...)
	c.buffer = append([]float64(nil), s.buffer...)
	return &c
}

// Centroids reports the current cluster count (after flushing).
func (s *Sketch) Centroids() int {
	s.flush()
	return len(s.centroids)
}

// MemoryBytes implements sketch.Sketch: two numbers per centroid plus the
// buffer capacity and bookkeeping.
func (s *Sketch) MemoryBytes() int {
	return 8 * (2*len(s.centroids) + len(s.buffer) + 6)
}

// Reset implements sketch.Sketch.
func (s *Sketch) Reset() {
	*s = *New(s.compression)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	s.flush()
	w := sketch.NewWriter(48 + 16*len(s.centroids))
	w.Header(sketch.TagTDigest)
	w.F64(s.compression)
	w.I64(s.count)
	w.F64(s.min)
	w.F64(s.max)
	w.U32(uint32(len(s.centroids)))
	for _, c := range s.centroids {
		w.F64(c.mean)
		w.I64(c.count)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagTDigest); err != nil {
		return err
	}
	comp := r.F64()
	count := r.I64()
	minV := r.F64()
	maxV := r.F64()
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if comp < 10 || comp > 1e6 || n < 0 || n > r.Remaining()/16 {
		return sketch.ErrCorrupt
	}
	ns := New(comp)
	ns.count = count
	ns.min = minV
	ns.max = maxV
	ns.centroids = make([]centroid, n)
	for i := range ns.centroids {
		ns.centroids[i] = centroid{mean: r.F64(), count: r.I64()}
		if ns.centroids[i].count < 0 {
			return sketch.ErrCorrupt
		}
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	*s = *ns
	return nil
}
