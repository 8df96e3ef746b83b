package blockstore

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	key := Key{ID: 7, Kind: Data}
	data := []byte("block content")
	if err := s.Put(key, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
	// Returned copy must not alias stored data.
	got[0] = 'X'
	again, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] == 'X' {
		t.Fatal("Get aliases stored data")
	}
	// Input copy: mutating the original must not affect the store.
	data[1] = 'Z'
	again, _ = s.Get(key)
	if again[1] == 'Z' {
		t.Fatal("Put aliases caller data")
	}
}

func TestPutDuplicate(t *testing.T) {
	s := New()
	key := Key{ID: 1, Kind: Data}
	if err := s.Put(key, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("b")); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Put error = %v", err)
	}
	// Same ID, different kind is a different key.
	if err := s.Put(Key{ID: 1, Kind: Parity}, []byte("p")); err != nil {
		t.Errorf("parity with same ID: %v", err)
	}
}

// TestAdoptSharesSealedBlock: stores that adopt one sealed block share its
// bytes, which are not the sealed slice's, count them each, refuse a second
// adoption under a key and keep a corrupted store's neighbours clean.
func TestAdoptSharesSealedBlock(t *testing.T) {
	data := []byte("one copy for every replica")
	b := Seal(data)
	data[0] = 'X'
	key := Key{ID: 3, Kind: Data}
	a, c := New(), New()
	for _, s := range []*Store{a, c} {
		if err := s.Adopt(key, b); err != nil {
			t.Fatal(err)
		}
		if s.Bytes() != int64(len(data)) {
			t.Errorf("Bytes = %d, want %d", s.Bytes(), len(data))
		}
	}
	if err := a.Adopt(key, b); !errors.Is(err, ErrExists) {
		t.Errorf("second Adopt error = %v", err)
	}
	va, _ := a.View(key)
	vc, _ := c.View(key)
	if &va[0] != &vc[0] || &va[0] == &data[0] || va[0] != 'o' {
		t.Fatal("adopting stores do not share the sealed copy")
	}
	if err := a.Corrupt(key); err != nil {
		t.Fatal(err)
	}
	if _, err := a.View(key); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted View error = %v", err)
	}
	if v, err := c.View(key); err != nil || string(v) != "one copy for every replica" {
		t.Errorf("neighbour's View after Corrupt = %q, %v", v, err)
	}
}

// TestOwnSharesCallersBlock: a store that adopts an owned block keeps the
// caller's array itself, verifies it on View, and a Corrupt of the store
// leaves that array as it was.
func TestOwnSharesCallersBlock(t *testing.T) {
	data := []byte("folded parity, stored as folded")
	key := Key{ID: 4, Kind: Parity}
	s := New()
	if err := s.Adopt(key, Own(data)); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != int64(len(data)) {
		t.Errorf("Bytes = %d, want %d", s.Bytes(), len(data))
	}
	v, err := s.View(key)
	if err != nil {
		t.Fatalf("View of an owned block: %v", err)
	}
	if &v[0] != &data[0] {
		t.Fatal("the store copied an owned block")
	}
	if err := s.Corrupt(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(key); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted View error = %v", err)
	}
	if string(data) != "folded parity, stored as folded" {
		t.Errorf("Corrupt wrote the caller's array: %q", data)
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	if _, err := s.Get(Key{ID: 404, Kind: Data}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing Get error = %v", err)
	}
}

func TestDelete(t *testing.T) {
	s := New()
	key := Key{ID: 2, Kind: Data}
	if err := s.Put(key, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != 2 || s.Len() != 1 {
		t.Fatalf("Bytes=%d Len=%d", s.Bytes(), s.Len())
	}
	if err := s.Delete(key); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Bytes() != 0 || s.Len() != 0 {
		t.Fatalf("after delete Bytes=%d Len=%d", s.Bytes(), s.Len())
	}
	if err := s.Delete(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete error = %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := New()
	key := Key{ID: 3, Kind: Parity}
	if err := s.Put(key, []byte("parity bytes")); err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt(key); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted Get error = %v", err)
	}
	if err := s.Corrupt(Key{ID: 9, Kind: Data}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Corrupt missing error = %v", err)
	}
}

// TestViewSurvivesCorrupt pins the immutability views rely on: a view taken
// before Corrupt keeps the verified bytes, the next View and GetInto report
// the corruption, and GetInto still rejects a wrong-size buffer.
func TestViewSurvivesCorrupt(t *testing.T) {
	s := New()
	key := Key{ID: 4, Kind: Data}
	data := []byte("replica bytes")
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	view, err := s.View(key)
	if err != nil || !bytes.Equal(view, data) {
		t.Fatalf("View = %q, %v; want %q", view, err, data)
	}
	if err := s.GetInto(key, make([]byte, len(data)+1)); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("GetInto into a %d-byte buffer = %v, want a size error", len(data)+1, err)
	}
	if err := s.Corrupt(key); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, data) {
		t.Errorf("a view taken before Corrupt reads %q, want %q", view, data)
	}
	if _, err := s.View(key); !errors.Is(err, ErrCorrupt) {
		t.Errorf("View after Corrupt = %v, want ErrCorrupt", err)
	}
	if err := s.GetInto(key, make([]byte, len(data))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("GetInto after Corrupt = %v, want ErrCorrupt", err)
	}
	if _, err := s.View(Key{ID: 5, Kind: Data}); !errors.Is(err, ErrNotFound) {
		t.Errorf("View of a missing key = %v, want ErrNotFound", err)
	}
}

func TestHasKeysClear(t *testing.T) {
	s := New()
	keys := []Key{{ID: 5, Kind: Parity}, {ID: 1, Kind: Data}, {ID: 3, Kind: Data}}
	for _, k := range keys {
		if err := s.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Has(keys[0]) || s.Has(Key{ID: 99, Kind: Data}) {
		t.Error("Has wrong")
	}
	sorted := s.Keys()
	want := []Key{{ID: 1, Kind: Data}, {ID: 3, Kind: Data}, {ID: 5, Kind: Parity}}
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", sorted, want)
		}
	}
	s.Clear()
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Error("Clear incomplete")
	}
}

func TestKindAndKeyString(t *testing.T) {
	if Data.String() != "data" || Parity.String() != "parity" || Kind(9).String() != "kind(9)" {
		t.Error("Kind.String wrong")
	}
	if (Key{ID: 4, Kind: Data}).String() != "data/4" {
		t.Error("Key.String wrong")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := Key{ID: int64(i), Kind: Data}
			if err := s.Put(key, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
			got, err := s.Get(key)
			if err != nil || got[0] != byte(i) {
				t.Errorf("Get(%v): %v", key, err)
			}
			_ = s.Has(key)
			_ = s.Keys()
			_ = s.Bytes()
		}()
	}
	wg.Wait()
	if s.Len() != 16 {
		t.Errorf("Len = %d, want 16", s.Len())
	}
}

// TestRunningChecksumOverSlices reads an Unverified block in uneven slices:
// the running checksum over them passes Check, and with one bit flipped in
// the last slice it fails, though every earlier slice read clean.
func TestRunningChecksumOverSlices(t *testing.T) {
	s := New()
	key := Key{ID: 3, Kind: Data}
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	b, err := s.Unverified(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), data) {
		t.Fatal("Unverified bytes differ from what was put")
	}
	running := func(b Sealed) uint32 {
		crc := uint32(0)
		for lo := 0; lo < len(b.Bytes()); lo += 4096 {
			crc = b.Update(crc, lo, min(lo+4096, len(b.Bytes())))
		}
		return crc
	}
	if err := b.Check(running(b)); err != nil {
		t.Fatalf("running checksum over the slices: %v", err)
	}
	flipped := Sealed{data: bytes.Clone(b.data), sum: b.sum}
	flipped.data[len(flipped.data)-1] ^= 0x80
	if err := flipped.Check(running(flipped)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a bit flipped in the last slice: Check = %v, want ErrCorrupt", err)
	}
	if _, err := s.Unverified(Key{ID: 4, Kind: Data}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Unverified of a missing block = %v, want ErrNotFound", err)
	}
}
