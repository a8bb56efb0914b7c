// Package checkpoint provides the fault-tolerance substrate of the
// stream engine: a checksummed binary envelope wrapping serialized
// sketch state, an engine snapshot record capturing everything needed
// to resume a run from a window-fire barrier (watermark, per-window ×
// per-partition sketch blobs, stats counters, source offset), and a
// Store interface with in-memory and atomic directory backends.
//
// The paper runs its experiments on Flink precisely because Flink
// pairs event-time windows with fault-tolerant state (Sec 2.6/4.1);
// this package supplies the equivalent for internal/stream. Every blob
// is wrapped in a versioned envelope carrying the sketch's registry
// name and a CRC32-C checksum, so truncation and bit corruption are
// detected before any sketch decoder runs — corruption is contained to
// a clean error, never a panic or silently wrong state.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// EnvelopeVersion is the current envelope wire format version.
const EnvelopeVersion byte = 1

// magic identifies a checkpoint envelope ("QCKP": quantile checkpoint).
var magic = [4]byte{'Q', 'C', 'K', 'P'}

// maxNameLen bounds the envelope's name field (sketch registry names
// are short; a longer name indicates corruption).
const maxNameLen = 255

// envelope header: magic(4) version(1) nameLen(2) name payloadLen(4)
// payload crc(4), crc32-C over every preceding byte.
const envelopeOverhead = 4 + 1 + 2 + 4 + 4

// ErrCorrupt reports an envelope that failed structural or checksum
// validation.
var ErrCorrupt = errors.New("checkpoint: corrupt envelope")

// ErrVersion reports an envelope written by an incompatible format
// version.
var ErrVersion = errors.New("checkpoint: unsupported envelope version")

// castagnoli is the CRC32-C table (the polynomial used by iSCSI, ext4
// and the DataSketches serialization formats; hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps payload in a checksummed envelope tagged with name (the
// registry name of the sketch that produced it, or a record type like
// "engine-snapshot").
func Seal(name string, payload []byte) ([]byte, error) {
	buf, err := openEnvelope(name, len(payload))
	if err != nil {
		return nil, err
	}
	return closeEnvelope(append(buf, payload...), name), nil
}

// openEnvelope allocates an envelope with room for a payload of
// payloadLen bytes and writes its header. The caller appends the
// payload and finishes with closeEnvelope; a payload of another length
// still yields a valid envelope, at the cost of a reallocation.
func openEnvelope(name string, payloadLen int) ([]byte, error) {
	if len(name) == 0 || len(name) > maxNameLen {
		return nil, fmt.Errorf("checkpoint: envelope name %q must be 1..%d bytes", name, maxNameLen)
	}
	buf := make([]byte, 0, envelopeOverhead+len(name)+payloadLen)
	buf = append(buf, magic[:]...)
	buf = append(buf, EnvelopeVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	return binary.LittleEndian.AppendUint32(buf, uint32(payloadLen)), nil
}

// closeEnvelope records the length of the payload appended after
// openEnvelope's header and appends the checksum of every byte before
// it.
func closeEnvelope(buf []byte, name string) []byte {
	off := 7 + len(name)
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(buf)-off-4))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// Open validates data as an envelope (magic, version, lengths, CRC32-C)
// and returns its name and payload. The payload aliases data; callers
// that keep it past data's lifetime must copy. Any single-bit flip or
// truncation of a sealed envelope is guaranteed to be rejected.
func Open(data []byte) (name string, payload []byte, err error) {
	name, payload, crcOK, err := parse(data)
	if err != nil {
		return "", nil, err
	}
	if !crcOK {
		return "", nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return name, payload, nil
}

// parse splits data into envelope fields, validating structure but
// reporting (rather than failing on) a checksum mismatch so Inspect can
// describe damaged files.
func parse(data []byte) (name string, payload []byte, crcOK bool, err error) {
	if len(data) < envelopeOverhead {
		return "", nil, false, fmt.Errorf("%w: %d bytes is shorter than an empty envelope", ErrCorrupt, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return "", nil, false, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := data[4]; v != EnvelopeVersion {
		return "", nil, false, fmt.Errorf("%w: got version %d, support %d", ErrVersion, v, EnvelopeVersion)
	}
	nameLen := int(binary.LittleEndian.Uint16(data[5:7]))
	if nameLen == 0 || nameLen > maxNameLen || 7+nameLen+8 > len(data) {
		return "", nil, false, fmt.Errorf("%w: bad name length %d", ErrCorrupt, nameLen)
	}
	name = string(data[7 : 7+nameLen])
	off := 7 + nameLen
	payloadLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
	off += 4
	if payloadLen < 0 || off+payloadLen+4 != len(data) {
		return "", nil, false, fmt.Errorf("%w: payload length %d does not match envelope size", ErrCorrupt, payloadLen)
	}
	payload = data[off : off+payloadLen]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	crcOK = crc32.Checksum(data[:len(data)-4], castagnoli) == want
	return name, payload, crcOK, nil
}

// Info describes an envelope's metadata, including whether its checksum
// verifies — the `sketchtool checkpoint inspect` view.
type Info struct {
	// Name is the envelope's record name (a sketch registry name or
	// "engine-snapshot").
	Name string
	// Version is the envelope format version.
	Version byte
	// PayloadBytes is the wrapped payload's size.
	PayloadBytes int
	// CRC is the stored CRC32-C checksum.
	CRC uint32
	// CRCValid reports whether the stored checksum matches the content.
	CRCValid bool
}

// Inspect parses data's envelope header and checksum without requiring
// the checksum to verify, so damaged files can still be described. It
// errors only when the header itself is unparseable.
func Inspect(data []byte) (Info, error) {
	name, payload, crcOK, err := parse(data)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Name:         name,
		Version:      data[4],
		PayloadBytes: len(payload),
		CRC:          binary.LittleEndian.Uint32(data[len(data)-4:]),
		CRCValid:     crcOK,
	}, nil
}
