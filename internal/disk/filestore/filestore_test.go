package filestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipec/internal/hiperr"
	"hipec/internal/store/storetest"
	"hipec/internal/substrate"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "pages.dat"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustWrite(t *testing.T, s *Store, key substrate.PageKey, data []byte) {
	t.Helper()
	if err := s.WritePage(key, data); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	s := newStore(t)
	key := substrate.PageKey{Object: 7, Offset: 8192}
	page := bytes.Repeat([]byte{0xAB}, 4096)
	mustWrite(t, s, key, page)
	got, ok, err := s.ReadPage(key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !bytes.Equal(got, page) {
		t.Fatalf("round trip lost data (ok=%v)", ok)
	}
	if s.Len() != 1 || !s.Contains(key) {
		t.Fatalf("Len=%d Contains=%v", s.Len(), s.Contains(key))
	}
	if r, w := s.StoreIO(); r != 1 || w != 1 {
		t.Fatalf("StoreIO = %d reads, %d writes; want 1, 1", r, w)
	}
}

func TestAbsentPage(t *testing.T) {
	s := newStore(t)
	if _, ok, err := s.ReadPage(substrate.PageKey{Object: 1}); ok || err != nil {
		t.Fatalf("absent page read as present (ok=%v err=%v)", ok, err)
	}
}

func TestRewriteReusesSlot(t *testing.T) {
	s := newStore(t)
	key := substrate.PageKey{Object: 1, Offset: 0}
	mustWrite(t, s, key, bytes.Repeat([]byte{1}, 4096))
	mustWrite(t, s, key, bytes.Repeat([]byte{2}, 4096))
	if s.Len() != 1 {
		t.Fatalf("rewrite grew the store to %d slots", s.Len())
	}
	got, _, _ := s.ReadPage(key)
	if got[0] != 2 {
		t.Fatalf("rewrite not visible, got %d", got[0])
	}
}

func TestShortWriteZeroPads(t *testing.T) {
	s := newStore(t)
	key := substrate.PageKey{Object: 3, Offset: 4096}
	mustWrite(t, s, key, []byte{9, 9})
	got, ok, _ := s.ReadPage(key)
	if !ok || got[0] != 9 || got[1] != 9 || got[2] != 0 || got[4095] != 0 {
		t.Fatalf("short write not zero-padded (ok=%v)", ok)
	}
}

func TestNilDataDurablePresence(t *testing.T) {
	s := newStore(t)
	key := substrate.PageKey{Object: 4, Offset: 0}
	mustWrite(t, s, key, nil)
	got, ok, _ := s.ReadPage(key)
	if !ok {
		t.Fatal("nil write did not record presence")
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("nil write must read back as zeroes")
		}
	}
}

func TestUnalignedOffsetPanics(t *testing.T) {
	s := newStore(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned offset did not panic")
		}
	}()
	s.WritePage(substrate.PageKey{Object: 1, Offset: 100}, nil)
}

// TestPartialWriteDoesNotClobberReadBuffer pins ReadPage's contract: the
// returned buffer stays valid until the next ReadPage, even across a
// partial-page WritePage (which pads in its own scratch buffer).
func TestPartialWriteDoesNotClobberReadBuffer(t *testing.T) {
	s := newStore(t)
	keyA := substrate.PageKey{Object: 1, Offset: 0}
	keyB := substrate.PageKey{Object: 2, Offset: 0}
	mustWrite(t, s, keyA, bytes.Repeat([]byte{0xAA}, 4096))
	held, ok, err := s.ReadPage(keyA)
	if !ok || err != nil {
		t.Fatalf("read back: ok=%v err=%v", ok, err)
	}
	mustWrite(t, s, keyB, []byte{0xBB, 0xBB}) // partial: pads via writeBuf
	for i, b := range held {
		if b != 0xAA {
			t.Fatalf("partial WritePage clobbered held read buffer at %d: %#x", i, b)
		}
	}
}

// TestIOErrorsAreTypedNotPanics: real I/O failures surface as hiperr-typed
// ErrDiskIO errors, not process-killing panics, and a failed first write
// does not record the key as present.
func TestIOErrorsAreTypedNotPanics(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "pages.dat"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	key := substrate.PageKey{Object: 1, Offset: 0}
	mustWrite(t, s, key, []byte{1, 2, 3})
	// Close the fd underneath the store: every subsequent transfer fails
	// the way EIO/ENOSPC would.
	if err := s.f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, rerr := s.ReadPage(key); !ok || !errors.Is(rerr, hiperr.ErrDiskIO) {
		t.Fatalf("ReadPage on dead fd: ok=%v err=%v, want present + ErrDiskIO", ok, rerr)
	}
	werr := s.WritePage(substrate.PageKey{Object: 9, Offset: 0}, []byte{7})
	if !errors.Is(werr, hiperr.ErrDiskIO) {
		t.Fatalf("WritePage on dead fd: err=%v, want ErrDiskIO", werr)
	}
	if s.Contains(substrate.PageKey{Object: 9, Offset: 0}) {
		t.Fatal("failed first write recorded the key as present")
	}
	if werr := s.WritePage(key, []byte{7}); !errors.Is(werr, hiperr.ErrDiskIO) {
		t.Fatalf("rewrite on dead fd: err=%v, want ErrDiskIO", werr)
	}
	if !s.Contains(key) {
		t.Fatal("failed rewrite dropped an already-durable key")
	}
}

func TestOpenTempRemovesOnClose(t *testing.T) {
	s, err := OpenTemp(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	path := s.Path()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("backing file missing while open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("backing file survived Close: %v", err)
	}
}

// TestOpenKeepsOSCause: a failed open is typed ErrDiskIO and still says
// why the OS refused, in every mode.
func TestOpenKeepsOSCause(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir")
	_, statErr := os.Stat(missing)
	if statErr == nil {
		t.Fatal("missing directory exists")
	}
	cause := errors.Unwrap(statErr).Error() // e.g. "no such file or directory"
	file := filepath.Join(missing, "pages.dat")
	for name, open := range map[string]func() (*Store, error){
		"Open":           func() (*Store, error) { return Open(file, 4096) },
		"OpenTemp":       func() (*Store, error) { return OpenTemp(missing, 4096) },
		"OpenMapped":     func() (*Store, error) { return OpenMapped(file, 4096) },
		"OpenTempMapped": func() (*Store, error) { return OpenTempMapped(missing, 4096) },
	} {
		s, err := open()
		if err == nil {
			s.Close()
			t.Fatalf("%s under a missing directory succeeded", name)
		}
		if !errors.Is(err, hiperr.ErrDiskIO) {
			t.Errorf("%s: error %v does not wrap hiperr.ErrDiskIO", name, err)
		}
		if !strings.Contains(err.Error(), cause) {
			t.Errorf("%s: error %q does not name the OS cause %q", name, err, cause)
		}
	}
}

// dropMapping does to a mapped store what a filesystem that stops
// cooperating mid-run does: the mapping goes, the slot table stays, and
// pread/pwrite serves from then on.
func dropMapping(t *testing.T, s *Store) {
	t.Helper()
	if !s.Mapped() {
		s.Close()
		t.Skip("mmap unavailable here: the store opened on pread/pwrite")
	}
	if err := unmapFile(s.data); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	s.data = nil
}

// TestMappedDegradeKeepsPages drives a mapped store past its initial
// capacity (one remap), deletes some pages, drops the mapping, then keeps
// writing, overwriting and deleting on pread/pwrite. Every live page must
// read back byte-identical, and slots freed on either side of the switch
// must be reused before the file grows.
func TestMappedDegradeKeepsPages(t *testing.T) {
	const ps = 512
	s, err := OpenTempMapped(t.TempDir(), ps)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[substrate.PageKey][]byte{}
	key := func(i int) substrate.PageKey {
		return substrate.PageKey{Object: uint64(i % 3), Offset: int64(i) * ps}
	}
	write := func(i int, seed byte) {
		t.Helper()
		data := bytes.Repeat([]byte{seed, byte(i)}, ps/2)
		switch i % 5 {
		case 3:
			data = data[:ps/3] // partial: the tail reads back zeroed
		case 4:
			data = nil // presence only: reads back as zeroes
		}
		if err := s.WritePage(key(i), data); err != nil {
			t.Fatalf("WritePage(%d): %v", i, err)
		}
		page := make([]byte, ps)
		copy(page, data)
		want[key(i)] = page
	}
	del := func(i int) {
		t.Helper()
		if !s.DeletePage(key(i)) {
			t.Fatalf("DeletePage(%d) = false", i)
		}
		delete(want, key(i))
	}
	verify := func(phase string) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d", phase, s.Len(), len(want))
		}
		for k, page := range want {
			got, ok, err := s.ReadPage(k)
			if err != nil || !ok {
				t.Fatalf("%s: page %v: ok=%v err=%v", phase, k, ok, err)
			}
			if !bytes.Equal(got, page) {
				t.Fatalf("%s: page %v reads back different bytes", phase, k)
			}
		}
	}

	// Mapped: 100 pages outgrow the 64-page initial mapping.
	for i := 0; i < 100; i++ {
		write(i, 0xA0)
	}
	if !s.Mapped() || s.capPages < 100 {
		t.Fatalf("after 100 mapped writes: mapped=%v capacity %d pages", s.Mapped(), s.capPages)
	}
	for _, i := range []int{10, 20, 30} {
		del(i)
	}
	verify("mapped")
	high := s.nextSlot

	dropMapping(t, s)
	verify("just degraded")

	// Three new keys take the three slots freed while mapped.
	for i := 100; i < 103; i++ {
		write(i, 0xB0)
	}
	if s.nextSlot != high || len(s.free) != 0 {
		t.Fatalf("slots freed while mapped not reused: high-water %d -> %d, %d still free", high, s.nextSlot, len(s.free))
	}
	// Overwrites of pages first written through the mapping.
	for i := 0; i < 100; i += 7 {
		if _, ok := want[key(i)]; ok {
			write(i, 0xC0)
		}
	}
	// Slots freed on pread/pwrite are reused too.
	for _, i := range []int{1, 2, 101} {
		del(i)
	}
	for i := 103; i < 106; i++ {
		write(i, 0xD0)
	}
	if s.nextSlot != high || len(s.free) != 0 {
		t.Fatalf("slots freed after the degrade not reused: high-water %d -> %d, %d still free", high, s.nextSlot, len(s.free))
	}
	if s.Mapped() {
		t.Fatal("store remapped itself after the degrade")
	}
	verify("degraded")
}

// TestDegradedStoreConforms runs the conformance kit over a store that
// outgrew its initial mapping, freed every page and then lost the mapping:
// the kit's workloads reuse mapped-era slots on pread/pwrite.
func TestDegradedStoreConforms(t *testing.T) {
	storetest.Run(t, func(t *testing.T) substrate.Store {
		s, err := OpenTempMapped(t.TempDir(), 512)
		if err != nil {
			t.Fatal(err)
		}
		k := func(i int64) substrate.PageKey { return substrate.PageKey{Object: 99, Offset: i * 512} }
		for i := int64(0); i < mappedInitialPages+6; i++ {
			if err := s.WritePage(k(i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < mappedInitialPages+6; i++ {
			s.DeletePage(k(i))
		}
		if s.capPages <= mappedInitialPages {
			t.Fatalf("mapping did not grow: %d pages", s.capPages)
		}
		dropMapping(t, s)
		return s
	})
}
