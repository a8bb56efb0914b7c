package sketch

import (
	"encoding/binary"
	"math"
)

// The sketches in this repository share a tiny hand-rolled binary codec:
// little-endian fixed-width integers and IEEE-754 doubles, preceded by a
// one-byte type tag and a format version so corrupt or mismatched blobs
// fail fast instead of decoding garbage.

// Type tags used as the first byte of every serialized sketch.
const (
	TagKLL       byte = 0x01
	TagMoments   byte = 0x02
	TagDDSketch  byte = 0x03
	TagUDDSketch byte = 0x04
	TagReq       byte = 0x05
	TagTDigest   byte = 0x06
	TagGK        byte = 0x07
)

// SerdeVersion is bumped whenever any sketch's wire layout changes.
// Version 2 added the exact RNG state of the randomized sketches
// (KLL/REQ/MRL) so a decoded sketch continues bit-identically to the
// original — the property checkpoint/restore recovery is built on.
const SerdeVersion byte = 2

// Writer appends primitive values to a byte buffer in the shared codec.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// AppendWriter returns a Writer that appends to buf, for encoders that
// size their output up front and write their own prefix into it.
func AppendWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends an IEEE-754 double.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// F64s appends a length-prefixed slice of doubles.
func (w *Writer) F64s(vs []float64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// I64s appends a length-prefixed slice of int64s.
func (w *Writer) I64s(vs []int64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.I64(v)
	}
}

// Blob appends a length-prefixed opaque byte slice.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Header writes the standard (tag, version) prefix.
func (w *Writer) Header(tag byte) {
	w.Byte(tag)
	w.Byte(SerdeVersion)
}

// Reader consumes primitive values from a byte buffer. All methods return
// ErrCorrupt (wrapped in the bool/ok protocol below) on underflow: callers
// check Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err reports the first underflow encountered, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrCorrupt
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 double.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// F64s reads a length-prefixed slice of doubles.
func (r *Reader) F64s() []float64 {
	n := int(r.U32())
	if r.err != nil || n < 0 || n > (len(r.buf)-r.off)/8 {
		if r.err == nil {
			r.err = ErrCorrupt
		}
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}

// I64s reads a length-prefixed slice of int64s.
func (r *Reader) I64s() []int64 {
	n := int(r.U32())
	if r.err != nil || n < 0 || n > (len(r.buf)-r.off)/8 {
		if r.err == nil {
			r.err = ErrCorrupt
		}
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.I64()
	}
	return vs
}

// Blob reads a length-prefixed opaque byte slice (a copy, never an
// alias of the input buffer).
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
		if r.err == nil {
			r.err = ErrCorrupt
		}
		return nil
	}
	b := make([]byte, n)
	copy(b, r.take(n))
	return b
}

// Header consumes and validates the (tag, version) prefix.
func (r *Reader) Header(wantTag byte) error {
	tag := r.Byte()
	ver := r.Byte()
	if r.err != nil {
		return r.err
	}
	if tag != wantTag || ver != SerdeVersion {
		return ErrCorrupt
	}
	return nil
}

// Remaining reports how many undecoded bytes are left; decoders use it to
// reject trailing garbage.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }
