// Package blockstore implements the per-DataNode block storage of the
// mini-HDFS testbed: an in-memory, checksum-verified store of fixed-role
// blocks (data replicas and parity blocks). HDFS DataNodes keep blocks as
// files with CRC sidecars; the store keeps bytes with a CRC32C checksum
// verified on every read: in one pass before View, Get or GetInto returns,
// or slice by slice by a reader of an Unverified block.
package blockstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// Errors returned by the store.
var (
	// ErrNotFound indicates the block is not stored here.
	ErrNotFound = errors.New("blockstore: block not found")
	// ErrCorrupt indicates a checksum mismatch on read.
	ErrCorrupt = errors.New("blockstore: block corrupt")
	// ErrExists indicates a Put for a block already stored.
	ErrExists = errors.New("blockstore: block already stored")
)

// Kind distinguishes data replicas from parity blocks.
type Kind int

const (
	// Data marks a replica of an original data block.
	Data Kind = iota + 1
	// Parity marks an erasure-coded parity block.
	Parity
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Parity:
		return "parity"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Key identifies a stored block. Parity blocks are keyed by (stripe,
// index) composed by the caller into the ID space it manages.
type Key struct {
	ID   int64
	Kind Kind
}

// String renders the key.
func (k Key) String() string { return fmt.Sprintf("%s/%d", k.Kind, k.ID) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sealed is a block the stores may hold: bytes no one writes again, and their
// checksum. Seal makes one from a private copy, Own from a slice its caller
// hands over; any number of stores may adopt the same Sealed block, sharing
// its bytes.
type Sealed struct {
	data []byte
	sum  uint32
}

// Seal copies data and checksums the copy, outside any store's lock.
func Seal(data []byte) Sealed {
	return Own(append([]byte(nil), data...))
}

// Own checksums data in place, outside any store's lock, and seals it without
// a copy: the caller hands the slice over and never writes it again.
func Own(data []byte) Sealed {
	return OwnSummed(data, Extend(0, data))
}

// OwnSummed is Own for a caller that made data slice by slice and ran its
// checksum over each slice as it was done (Extend): sum is that running
// checksum over all of data, which is not read again to seal it.
func OwnSummed(data []byte, sum uint32) Sealed {
	return Sealed{data: data, sum: sum}
}

// Extend returns the running checksum crc extended over p. Run from 0 over
// consecutive slices that make up a block, it ends at the block's checksum,
// the one Own computes.
func Extend(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, castagnoli, p)
}

// Store is a thread-safe in-memory block store.
type Store struct {
	mu      sync.RWMutex
	entries map[Key]Sealed
	bytes   int64
}

// New returns an empty store.
func New() *Store {
	return &Store{entries: make(map[Key]Sealed)}
}

// Put stores a copy of data under key: Adopt of Seal(data). It returns
// ErrExists if the key is already present.
func (s *Store) Put(key Key, data []byte) error {
	return s.Adopt(key, Seal(data))
}

// Adopt stores the sealed block under key without a copy; stores that adopt
// the same block share its bytes, and each counts them in Bytes. It returns
// ErrExists if the key is already present.
func (s *Store) Adopt(key Key, b Sealed) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	s.entries[key] = b
	s.bytes += int64(len(b.data))
	return nil
}

// View returns the stored block itself, its checksum verified, without a
// copy. The slice is read-only and stays valid after the block is deleted or
// corrupted: no store writes a sealed block's bytes (Corrupt swaps in a
// flipped copy), so a view is safe to read from any goroutine for as long as
// the caller keeps it.
func (s *Store) View(key Key) ([]byte, error) {
	b, err := s.Unverified(key)
	if err != nil {
		return nil, err
	}
	if err := b.Check(b.Update(0, 0, len(b.data))); err != nil {
		return nil, fmt.Errorf("%w: %s", err, key)
	}
	return b.data, nil
}

// Unverified returns the stored block itself, bytes and checksum, without a
// copy and without verifying it: a reader that reads the block in slices
// verifies it as it goes (Update, Check) instead of in one pass before it
// starts. Like a view, it stays valid after the block is deleted or
// corrupted.
func (s *Store) Unverified(key Key) (Sealed, error) {
	s.mu.RLock()
	e, ok := s.entries[key]
	s.mu.RUnlock()
	if !ok {
		return Sealed{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return e, nil
}

// Bytes returns the sealed block's bytes, read-only.
func (b Sealed) Bytes() []byte { return b.data }

// Update returns the running checksum crc extended over the block's bytes
// [lo, hi). Run from 0 over consecutive ranges that cover the block, it ends
// at the checksum Check compares.
func (b Sealed) Update(crc uint32, lo, hi int) uint32 {
	return Extend(crc, b.data[lo:hi])
}

// Check returns ErrCorrupt unless crc, the block's running checksum over all
// of its bytes (Update), equals the checksum it was sealed with.
func (b Sealed) Check(crc uint32) error {
	if crc != b.sum {
		return ErrCorrupt
	}
	return nil
}

// Get returns a copy of the block, verifying its checksum.
func (s *Store) Get(key Key) ([]byte, error) {
	v, err := s.View(key)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), v...), nil
}

// GetInto copies the block into dst, verifying the checksum first. dst must
// be exactly the stored block's length; a mismatch is an error so pooled
// callers notice stale buffer sizes instead of silently truncating. It is
// the allocation-free counterpart of Get.
func (s *Store) GetInto(key Key, dst []byte) error {
	v, err := s.View(key)
	if err != nil {
		return err
	}
	if len(dst) != len(v) {
		return fmt.Errorf("blockstore: %s is %d bytes, destination buffer %d", key, len(v), len(dst))
	}
	copy(dst, v)
	return nil
}

// Has reports whether the block is stored.
func (s *Store) Has(key Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.entries[key]
	return ok
}

// Delete removes the block. It returns ErrNotFound if absent.
func (s *Store) Delete(key Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	delete(s.entries, key)
	s.bytes -= int64(len(e.data))
	return nil
}

// Corrupt replaces the stored block with a copy that has one bit flipped, for
// failure-injection tests; views taken before keep the verified bytes. It
// returns ErrNotFound if absent.
func (s *Store) Corrupt(key Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if len(e.data) > 0 {
		e.data = append([]byte(nil), e.data...)
		e.data[0] ^= 0x01
		s.entries[key] = e
	}
	return nil
}

// Len returns the number of stored blocks.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Bytes returns the total stored payload size.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Keys returns all stored keys sorted by kind then ID.
func (s *Store) Keys() []Key {
	s.mu.RLock()
	keys := make([]Key, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		return keys[i].ID < keys[j].ID
	})
	return keys
}

// Clear removes every block.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[Key]Sealed)
	s.bytes = 0
}
