// Package storetest is the conformance kit for substrate.Store
// implementations. Every backend — the in-memory reference, the slot-file
// store, and each composite in internal/store — must pass Run against the
// same factory signature, so the Store contract lives in one place instead
// of being re-asserted (slightly differently) per backend.
//
// The kit checks the full written contract: round-trips, overwrite,
// nil-write presence, partial-page zero padding, Contains/Len accounting,
// deletion and slot reuse, Sync and the transfer counters,
// hiperr.ErrDiskIO propagation under injected failures, and serialized
// concurrent use under the race detector (stores are confined to one actor
// loop in production; the kit mimics that discipline with a mutex and lets
// the race detector prove the backend publishes no state outside it).
package storetest

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hipec/internal/hiperr"
	"hipec/internal/substrate"
)

// Factory opens a fresh, empty store for one subtest. Cleanup is the
// kit's job: the store is closed when the subtest ends.
type Factory func(t *testing.T) substrate.Store

// Run exercises the store contract against factory-built instances. Each
// subtest gets a fresh store.
func Run(t *testing.T, factory Factory) {
	t.Helper()
	t.Run("RoundTrip", func(t *testing.T) { testRoundTrip(t, open(t, factory)) })
	t.Run("Overwrite", func(t *testing.T) { testOverwrite(t, open(t, factory)) })
	t.Run("NilWritePresence", func(t *testing.T) { testNilWrite(t, open(t, factory)) })
	t.Run("PartialPagePadding", func(t *testing.T) { testPartialPage(t, open(t, factory)) })
	t.Run("ContainsLen", func(t *testing.T) { testContainsLen(t, open(t, factory)) })
	t.Run("Delete", func(t *testing.T) { testDelete(t, open(t, factory)) })
	t.Run("SyncAndCounters", func(t *testing.T) { testSyncAndCounters(t, open(t, factory)) })
	t.Run("InjectedWriteFailure", func(t *testing.T) { testWriteFailure(t, open(t, factory)) })
	t.Run("InjectedReadFailure", func(t *testing.T) { testReadFailure(t, open(t, factory)) })
	t.Run("ConcurrentSerialized", func(t *testing.T) { testConcurrent(t, open(t, factory)) })
}

func open(t *testing.T, factory Factory) substrate.Store {
	t.Helper()
	s := factory(t)
	if s == nil {
		t.Fatal("factory returned nil store")
	}
	if s.PageSize() <= 0 {
		t.Fatalf("PageSize() = %d, want > 0", s.PageSize())
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// key builds a page-aligned key for page index i of object obj.
func key(s substrate.Store, obj uint64, i int64) substrate.PageKey {
	return substrate.PageKey{Object: obj, Offset: i * int64(s.PageSize())}
}

// pattern fills a full page deterministically from a seed.
func pattern(size int, seed byte) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = seed + byte(i)*7
	}
	return p
}

// mustRead fetches a page that must be present and readable, returning a
// private copy (ReadPage buffers are reusable).
func mustRead(t *testing.T, s substrate.Store, k substrate.PageKey) []byte {
	t.Helper()
	data, ok, err := s.ReadPage(k)
	if err != nil {
		t.Fatalf("ReadPage(%v): %v", k, err)
	}
	if !ok {
		t.Fatalf("ReadPage(%v): ok = false, want present", k)
	}
	return append([]byte(nil), data...)
}

// wantPage asserts a present page reads back as want, tolerating the
// nil-means-zeroes representation: a page written as nil may read back
// nil or a zero-filled page.
func wantPage(t *testing.T, s substrate.Store, k substrate.PageKey, want []byte) {
	t.Helper()
	got := mustRead(t, s, k)
	if len(got) != 0 && len(got) != s.PageSize() {
		t.Fatalf("ReadPage(%v): %d bytes, want 0 or full page (%d)", k, len(got), s.PageSize())
	}
	norm := func(b []byte) []byte {
		if len(b) == 0 {
			return make([]byte, s.PageSize())
		}
		return b
	}
	if g, w := norm(got), norm(want); !bytes.Equal(g, w) {
		t.Fatalf("ReadPage(%v) mismatch:\n got %x\nwant %x", k, g[:16], w[:16])
	}
}

func testRoundTrip(t *testing.T, s substrate.Store) {
	ps := s.PageSize()
	const pages = 32
	for i := int64(0); i < pages; i++ {
		k := key(s, uint64(i%3), i)
		if err := s.WritePage(k, pattern(ps, byte(i))); err != nil {
			t.Fatalf("WritePage(%v): %v", k, err)
		}
	}
	for i := int64(0); i < pages; i++ {
		wantPage(t, s, key(s, uint64(i%3), i), pattern(ps, byte(i)))
	}
	if got := s.Len(); got != pages {
		t.Fatalf("Len() = %d, want %d", got, pages)
	}
	// A read buffer is reusable: two reads in a row must each be correct
	// at the time of the read.
	a := mustRead(t, s, key(s, 0, 0))
	b := mustRead(t, s, key(s, 1, 1))
	if bytes.Equal(a, b) {
		t.Fatal("distinct pages read back equal — read buffer aliasing?")
	}
}

func testOverwrite(t *testing.T, s substrate.Store) {
	ps := s.PageSize()
	k := key(s, 7, 2)
	for round := byte(0); round < 4; round++ {
		if err := s.WritePage(k, pattern(ps, round*31)); err != nil {
			t.Fatalf("WritePage round %d: %v", round, err)
		}
		wantPage(t, s, k, pattern(ps, round*31))
		if got := s.Len(); got != 1 {
			t.Fatalf("Len() after overwrite = %d, want 1", got)
		}
	}
}

func testNilWrite(t *testing.T, s substrate.Store) {
	k := key(s, 1, 4)
	if err := s.WritePage(k, nil); err != nil {
		t.Fatalf("WritePage(nil): %v", err)
	}
	if !s.Contains(k) {
		t.Fatal("Contains after nil write = false, want presence")
	}
	wantPage(t, s, k, nil) // nil or all-zero both conform
	if got := s.Len(); got != 1 {
		t.Fatalf("Len() = %d, want 1", got)
	}
}

func testPartialPage(t *testing.T, s substrate.Store) {
	ps := s.PageSize()
	k := key(s, 2, 1)
	// Dirty the page first so padding must actively zero the tail.
	if err := s.WritePage(k, pattern(ps, 0xAA)); err != nil {
		t.Fatalf("WritePage(full): %v", err)
	}
	part := pattern(ps, 0x11)[:ps/2]
	if err := s.WritePage(k, part); err != nil {
		t.Fatalf("WritePage(partial): %v", err)
	}
	want := make([]byte, ps)
	copy(want, part)
	wantPage(t, s, k, want)
}

func testContainsLen(t *testing.T, s substrate.Store) {
	if s.Contains(key(s, 9, 9)) {
		t.Fatal("Contains on empty store = true")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len() on empty store = %d", got)
	}
	if _, ok, err := s.ReadPage(key(s, 9, 9)); ok || err != nil {
		t.Fatalf("ReadPage(absent) = ok %v err %v, want false nil", ok, err)
	}
	for i := int64(0); i < 10; i++ {
		if err := s.WritePage(key(s, 4, i), pattern(s.PageSize(), byte(i))); err != nil {
			t.Fatalf("WritePage: %v", err)
		}
	}
	for i := int64(0); i < 10; i++ {
		if !s.Contains(key(s, 4, i)) {
			t.Fatalf("Contains(page %d) = false after write", i)
		}
	}
	if got := s.Len(); got != 10 {
		t.Fatalf("Len() = %d, want 10", got)
	}
}

func testDelete(t *testing.T, s substrate.Store) {
	k := key(s, 3, 5)
	if s.DeletePage(k) {
		t.Fatal("DeletePage(absent) = true")
	}
	if err := s.WritePage(k, pattern(s.PageSize(), 0x5C)); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	if !s.DeletePage(k) {
		t.Fatal("DeletePage(present) = false")
	}
	if s.Contains(k) {
		t.Fatal("Contains after delete = true")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len() after delete = %d, want 0", got)
	}
	// A deleted slot must be safely rewritable.
	if err := s.WritePage(k, pattern(s.PageSize(), 0x3D)); err != nil {
		t.Fatalf("WritePage after delete: %v", err)
	}
	wantPage(t, s, k, pattern(s.PageSize(), 0x3D))
}

// testSyncAndCounters: a healthy store syncs cleanly, and its counters
// see at least every transfer made through it (a composite may count one
// transfer in more than one child).
func testSyncAndCounters(t *testing.T, s substrate.Store) {
	const pages = 8
	r0, w0 := s.StoreIO()
	for i := int64(0); i < pages; i++ {
		if err := s.WritePage(key(s, 5, i), pattern(s.PageSize(), byte(i))); err != nil {
			t.Fatalf("WritePage: %v", err)
		}
	}
	for i := int64(0); i < pages; i++ {
		mustRead(t, s, key(s, 5, i))
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if r, w := s.StoreIO(); r-r0 < pages || w-w0 < pages {
		t.Fatalf("StoreIO grew by %d reads, %d writes over %d of each", r-r0, w-w0, pages)
	}
}

func testWriteFailure(t *testing.T, s substrate.Store) {
	f := &Failing{Store: s, FailWrite: 2} // second write fails
	k1, k2 := key(s, 0, 0), key(s, 0, 1)
	if err := f.WritePage(k1, pattern(s.PageSize(), 1)); err != nil {
		t.Fatalf("WritePage #1: %v", err)
	}
	err := f.WritePage(k2, pattern(s.PageSize(), 2))
	if err == nil {
		t.Fatal("WritePage #2: no error from injected failure")
	}
	if !errors.Is(err, hiperr.ErrDiskIO) {
		t.Fatalf("WritePage #2 error %v does not wrap hiperr.ErrDiskIO", err)
	}
	// The failed write never records presence.
	if f.Contains(k2) {
		t.Fatal("Contains(failed write key) = true — garbage recorded as present")
	}
	if got := f.Len(); got != 1 {
		t.Fatalf("Len() = %d after one good and one failed write, want 1", got)
	}
	// The store stays usable after the fault passes.
	if err := f.WritePage(k2, pattern(s.PageSize(), 3)); err != nil {
		t.Fatalf("WritePage #3 (after fault): %v", err)
	}
	wantPage(t, s, k2, pattern(s.PageSize(), 3))
}

func testReadFailure(t *testing.T, s substrate.Store) {
	f := &Failing{Store: s, FailRead: 1} // first read fails
	k := key(s, 6, 0)
	if err := f.WritePage(k, pattern(s.PageSize(), 9)); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	_, ok, err := f.ReadPage(k)
	if err == nil {
		t.Fatal("ReadPage: no error from injected failure")
	}
	if !errors.Is(err, hiperr.ErrDiskIO) {
		t.Fatalf("ReadPage error %v does not wrap hiperr.ErrDiskIO", err)
	}
	if !ok {
		t.Fatal("failed read of a present page reported ok=false — presence lost")
	}
	// Next read succeeds.
	wantPage(t, f, k, pattern(s.PageSize(), 9))
}

// testConcurrent drives mixed readers and writers through a mutex — the
// same serialization the core loop provides — and lets the race detector
// prove the store publishes nothing outside that discipline.
func testConcurrent(t *testing.T, s substrate.Store) {
	const (
		workers = 8
		opsEach = 64
	)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	ps := s.PageSize()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := key(s, uint64(w%3), int64((w*opsEach+i)%16))
				mu.Lock()
				switch i % 3 {
				case 0:
					if err := s.WritePage(k, pattern(ps, byte(w*16+i))); err != nil {
						t.Errorf("worker %d WritePage: %v", w, err)
					}
				case 1:
					if data, ok, err := s.ReadPage(k); err != nil {
						t.Errorf("worker %d ReadPage: %v", w, err)
					} else if ok && len(data) != 0 && len(data) != ps {
						t.Errorf("worker %d ReadPage: %d bytes", w, len(data))
					}
				case 2:
					s.Contains(k)
					s.Len()
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

// Failing wraps a Store so the Nth write and/or Nth read fail with a
// hiperr.ErrDiskIO-wrapped error (counting from 1; zero disables). Failed
// writes never reach the child, so nothing is recorded present; failed
// reads report presence from the child's Contains, matching a real medium
// error on a resident page. It is itself a conforming Store — the kit
// runs it through Run like any backend.
type Failing struct {
	substrate.Store
	FailWrite int // fail the Nth write (1-based); 0 = never
	FailRead  int // fail the Nth read (1-based); 0 = never

	writes int
	reads  int
}

// WritePage implements substrate.Store.
func (f *Failing) WritePage(k substrate.PageKey, data []byte) error {
	f.writes++
	if f.writes == f.FailWrite {
		return &hiperr.Error{Op: "storetest.failing.write",
			Err: fmt.Errorf("injected failure on write %d at %v: %w", f.writes, k, hiperr.ErrDiskIO)}
	}
	return f.Store.WritePage(k, data)
}

// ReadPage implements substrate.Store.
func (f *Failing) ReadPage(k substrate.PageKey) ([]byte, bool, error) {
	f.reads++
	if f.reads == f.FailRead {
		return nil, f.Store.Contains(k), &hiperr.Error{Op: "storetest.failing.read",
			Err: fmt.Errorf("injected failure on read %d at %v: %w", f.reads, k, hiperr.ErrDiskIO)}
	}
	return f.Store.ReadPage(k)
}

var _ substrate.Store = (*Failing)(nil)
