package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNotFound reports a Get for a sequence number the store does not
// hold.
var ErrNotFound = errors.New("checkpoint: snapshot not found")

// ErrNoSnapshot reports that a store holds no decodable snapshot to
// resume from.
var ErrNoSnapshot = errors.New("checkpoint: no usable snapshot in store")

// Store persists sealed snapshots keyed by an ascending sequence
// number. Implementations must make Put atomic: a reader never observes
// a partially written snapshot under the final key (torn writes at the
// byte level are instead caught by the envelope checksum).
type Store interface {
	// Put durably stores data under seq, replacing any previous value.
	// Put may retain data: the caller must not modify it afterwards.
	Put(seq uint64, data []byte) error
	// Get returns the data stored under seq, or ErrNotFound.
	Get(seq uint64) ([]byte, error)
	// Seqs lists the stored sequence numbers in ascending order.
	Seqs() ([]uint64, error)
}

// MemStore is the in-memory Store: snapshots live in a map. It is safe
// for concurrent use, and is the default store for tests and for
// quantbench runs without -checkpoint-dir.
type MemStore struct {
	mu    sync.Mutex
	snaps map[uint64][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{snaps: make(map[uint64][]byte)}
}

// Put implements Store. It keeps data itself, without a copy, as the
// Store contract allows; Get hands out copies, so a reader can never
// modify what is stored.
func (m *MemStore) Put(seq uint64, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snaps[seq] = data
	return nil
}

// Get implements Store.
func (m *MemStore) Get(seq uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.snaps[seq]
	if !ok {
		return nil, fmt.Errorf("%w: seq %d", ErrNotFound, seq)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Seqs implements Store.
func (m *MemStore) Seqs() ([]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seqs := make([]uint64, 0, len(m.snaps))
	for s := range m.snaps {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// snapPrefix/snapSuffix frame DirStore file names: snap-%016x.qckp.
const (
	snapPrefix = "snap-"
	snapSuffix = ".qckp"
)

// DirStore persists snapshots as files in a directory, one per
// sequence number. Put writes to a temp file in the same directory,
// fsyncs it, renames it into place, and fsyncs the directory, so a
// crash mid-write never leaves a partial snapshot under the final name
// (rename is atomic on POSIX filesystems) and a crash right after Put
// returns cannot lose the directory entry itself.
type DirStore struct {
	dir string
}

// NewDirStore creates dir if needed and returns a store over it.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (d *DirStore) Dir() string { return d.dir }

// Path returns the file path that holds (or would hold) seq.
func (d *DirStore) Path(seq uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix))
}

// Put implements Store: write-to-temp, fsync, rename, fsync the
// directory. Without the final directory sync the rename itself is not
// durable: a power loss after Put returns could roll the directory back
// to a state where the snapshot never existed, which breaks the
// contract RetryStore and the recovery loop build on.
func (d *DirStore) Put(seq uint64, data []byte) error {
	f, err := os.CreateTemp(d.dir, snapPrefix+"*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, d.Path(seq)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return d.syncDir()
}

// syncDir fsyncs the store directory, making completed renames durable.
func (d *DirStore) syncDir() error {
	dir, err := os.Open(d.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// Get implements Store.
func (d *DirStore) Get(seq uint64) ([]byte, error) {
	data, err := os.ReadFile(d.Path(seq))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: seq %d", ErrNotFound, seq)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return data, nil
}

// Seqs implements Store.
func (d *DirStore) Seqs() ([]uint64, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
		seq, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue // foreign file; not ours to interpret
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// LatestValid loads the newest snapshot in store that decodes and
// checksum-verifies, skipping corrupt or unreadable ones (newest
// first). It returns the snapshot, its sequence number, and how many
// newer snapshots were skipped as corrupt. When nothing usable remains
// the error wraps ErrNoSnapshot.
func LatestValid(store Store) (*Snapshot, uint64, int, error) {
	seqs, err := store.Seqs()
	if err != nil {
		return nil, 0, 0, err
	}
	skipped := 0
	for i := len(seqs) - 1; i >= 0; i-- {
		data, err := store.Get(seqs[i])
		if err != nil {
			skipped++
			continue
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			skipped++
			continue
		}
		return snap, seqs[i], skipped, nil
	}
	return nil, 0, skipped, fmt.Errorf("%w (%d present, all corrupt or unreadable)", ErrNoSnapshot, skipped)
}
