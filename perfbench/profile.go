package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profileSample is one CPU-profile sample: its stack as function names,
// innermost first, and the CPU time it stands for.
type profileSample struct {
	stack  []string
	weight float64
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes. Only the fields the layer
// attribution needs are read: samples (location ids, values),
// locations (lines → function ids), functions (name) and the string
// table.
func parseCPUProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sampleRec struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sampleRec
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sampleRec
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendVarints(s.locs, w, v, b)
				case 2:
					var vs []uint64
					vs, err = appendVarints(nil, w, v, b)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// CPU profiles carry [samples, cpu nanoseconds]; weight by time.
		w := float64(s.values[len(s.values)-1])
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		out = append(out, profileSample{stack: stack, weight: w})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for every field of one protobuf message: varint
// fields with v set, length-delimited fields with b set. Fixed-width
// fields are skipped.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one varint) or packed (a length-delimited run of varints).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
