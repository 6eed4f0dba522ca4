package substrate

import "fmt"

// PageKey addresses one page of backing store: the owning VM object and the
// page-aligned byte offset within it.
type PageKey struct {
	Object uint64
	Offset int64
}

// Store is page-granular backing storage. The simulated kernel's paging
// store (MemStore), the realtime slot-file store (disk/filestore, in either
// of its I/O modes) and the composites in internal/store implement it, and
// every one implements all of it: there are no optional surfaces to probe
// for, so a wrapper forwards by embedding.
//
// WritePage with nil data records presence without content (the simulation
// runs data-free by default); ReadPage's ok distinguishes "absent" (a
// zero-fill page) from "present with nil content".
//
// Errors are real I/O failures (ENOSPC, EIO on a file-backed store, a lost
// peer on a networked one), wrapped in the hiperr taxonomy terminating in
// ErrDiskIO. The in-memory store cannot fail and always returns nil;
// misuse (unaligned offset, oversize data) is a caller bug and panics on
// every backend.
type Store interface {
	// PageSize reports the store's page size in bytes.
	PageSize() int
	// WritePage stores data (length <= PageSize) for key; nil data records
	// presence only. On error the page's previous durable content (if any)
	// is unspecified per-backend, but the key is never recorded as present
	// with garbage.
	WritePage(key PageKey, data []byte) error
	// ReadPage fetches the page for key; ok is false for absent pages. A
	// non-nil err means the page is present but could not be read.
	ReadPage(key PageKey) (data []byte, ok bool, err error)
	// Contains reports whether the store holds a page for key.
	Contains(key PageKey) bool
	// Len reports the number of pages present.
	Len() int
	Deleter
	Syncer
	IOStats
	// Close releases the store's resources (files, mappings, children);
	// the store is unusable afterwards.
	Close() error
}

// Deleter is the removal part of Store. The paging kernel never deletes (a
// page once written stays until the object dies), but composite backends
// do: a tiered store's fast tier evicts pages it has flushed down.
// DeletePage reports whether the key was present; deleting an absent key
// is a no-op.
type Deleter interface {
	DeletePage(key PageKey) bool
}

// Syncer is the durability part of Store: Sync pushes buffered state (a
// write-back fast tier's dirty pages, a mapped file's page-cache residue)
// to the layer that owns durability.
type Syncer interface {
	Sync() error
}

// IOStats is the counter part of Store: StoreIO reports the page transfers
// the store served, summed over a composite's children.
type IOStats interface {
	StoreIO() (reads, writes int64)
}

// MemStore is the in-memory backing store of the simulation substrate: the
// paging file that VM objects page to and from. Content is optional —
// experiments that only count faults run with data disabled to avoid the
// memory traffic.
type MemStore struct {
	pageSize      int
	keepData      bool
	pages         map[PageKey][]byte
	reads, writes int64
}

// NewMemStore creates a backing store for pages of pageSize bytes. If
// keepData is false, page contents are not retained (reads return nil) but
// presence is still tracked.
func NewMemStore(pageSize int, keepData bool) *MemStore {
	if pageSize <= 0 {
		panic("substrate: non-positive page size")
	}
	return &MemStore{pageSize: pageSize, keepData: keepData, pages: make(map[PageKey][]byte)}
}

// PageSize implements Store.
func (s *MemStore) PageSize() int { return s.pageSize }

// WritePage implements Store; memory writes cannot fail.
func (s *MemStore) WritePage(key PageKey, data []byte) error {
	if key.Offset%int64(s.pageSize) != 0 {
		panic(fmt.Sprintf("substrate: unaligned store offset %d", key.Offset))
	}
	if len(data) > s.pageSize {
		panic(fmt.Sprintf("substrate: page data %d bytes exceeds page size %d", len(data), s.pageSize))
	}
	s.writes++
	if !s.keepData || data == nil {
		s.pages[key] = nil
		return nil
	}
	buf := make([]byte, s.pageSize)
	copy(buf, data)
	s.pages[key] = buf
	return nil
}

// ReadPage implements Store; memory reads cannot fail.
func (s *MemStore) ReadPage(key PageKey) (data []byte, ok bool, err error) {
	d, ok := s.pages[key]
	if ok {
		s.reads++
	}
	return d, ok, nil
}

// Contains implements Store.
func (s *MemStore) Contains(key PageKey) bool {
	_, ok := s.pages[key]
	return ok
}

// Len implements Store.
func (s *MemStore) Len() int { return len(s.pages) }

// DeletePage implements Store; memory pages release immediately.
func (s *MemStore) DeletePage(key PageKey) bool {
	_, ok := s.pages[key]
	delete(s.pages, key)
	return ok
}

// Sync implements Store; memory has nothing to flush.
func (s *MemStore) Sync() error { return nil }

// StoreIO implements Store: pages written, and present pages read.
func (s *MemStore) StoreIO() (reads, writes int64) { return s.reads, s.writes }

// Close implements Store; memory has nothing to release.
func (s *MemStore) Close() error { return nil }

var _ Store = (*MemStore)(nil)
