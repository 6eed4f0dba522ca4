// Package filestore is the realtime substrate's backing store: pages live
// in one flat file on the host filesystem, so page-ins and page-outs take
// genuine I/O time instead of a modeled disk charge. It plays the role the
// paging partition plays under the real HiPEC kernel — the store the
// default pager and policy-managed regions page to and from.
//
// Layout is a dense slot file: the first time a (object, offset) key is
// written it is assigned the next free page-sized slot, and an in-memory
// index maps keys to slots (the index is rebuildable state, not durable
// metadata — the store is a cache backend, not a database). ReadPage
// returns a buffer reused per store; callers copy into frames immediately,
// which is exactly what the VM page-in path does.
//
// The slot file has two I/O modes. Open and OpenTemp move pages with
// pread/pwrite. OpenMapped and OpenTempMapped memory-map the file instead:
// page writes are copies into the mapping, the mapping grows by doubling
// (ftruncate + remap), and durability is explicit — Sync flushes, and the
// kernel's page cache owns the bytes in between. Where mmap is unavailable
// (platform or filesystem) a mapped store runs pread/pwrite from the start,
// and one whose filesystem stops cooperating mid-run drops to pread/pwrite
// for the rest of its life; either way the slot table is the same, so no
// page is lost. Mapped reports which mode is live.
//
// The store itself is not safe for concurrent use; in realtime mode every
// access is serialized by the kernel's actor loop (core.Loop), the same
// single-writer discipline the simulated kernel gets from its one clock.
package filestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hipec/internal/hiperr"
	"hipec/internal/substrate"
)

// Store is a file-backed substrate.Store.
type Store struct {
	f        *os.File
	path     string
	pageSize int
	temp     bool // backing file is removed on Close

	data     []byte // the live mapping; nil means pread/pwrite
	capPages int64  // mapped capacity in pages, while data is live

	slots    map[substrate.PageKey]int64 // key -> slot index
	free     []int64                     // slots released by DeletePage, reused first
	nextSlot int64
	readBuf  []byte
	writeBuf []byte // scratch for padding partial writes; never aliased to readBuf
	zeroBuf  []byte

	// reads/writes count page transfers in and out of the file (or its
	// mapping).
	reads, writes int64
}

// mappedInitialPages is a mapped store's initial capacity.
const mappedInitialPages = 64

// errMapUnsupported marks a platform or filesystem that cannot mmap; a
// mapped store falls back to pread/pwrite rather than failing.
var errMapUnsupported = errors.New("filestore: mmap unavailable")

// Open creates (or truncates) a backing file for pages of pageSize bytes,
// moved with pread/pwrite. The parent directory must exist.
func Open(path string, pageSize int) (*Store, error) { return open(path, false, false, pageSize) }

// OpenTemp creates a store backed by a fresh file in dir (or the OS temp
// directory when dir is empty). Close removes it.
func OpenTemp(dir string, pageSize int) (*Store, error) { return open(dir, true, false, pageSize) }

// OpenMapped is Open with the backing file memory-mapped.
func OpenMapped(path string, pageSize int) (*Store, error) { return open(path, false, true, pageSize) }

// OpenTempMapped is OpenTemp with the backing file memory-mapped.
func OpenTempMapped(dir string, pageSize int) (*Store, error) {
	return open(dir, true, true, pageSize)
}

// open creates the backing file — at path, or when temp a fresh file in
// the directory path names — and maps it when mapped.
func open(path string, temp, mapped bool, pageSize int) (*Store, error) {
	if pageSize <= 0 {
		return nil, &hiperr.Error{Op: "filestore.open",
			Err: fmt.Errorf("non-positive page size %d: %w", pageSize, hiperr.ErrPolicyFault)}
	}
	var f *os.File
	var err error
	if temp {
		f, err = os.CreateTemp(path, "hipec-pages-*.dat")
	} else {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		// The *PathError names the file and the OS cause.
		return nil, &hiperr.Error{Op: "filestore.open", Err: fmt.Errorf("%v: %w", err, hiperr.ErrDiskIO)}
	}
	s := &Store{
		f:        f,
		path:     f.Name(),
		pageSize: pageSize,
		temp:     temp,
		slots:    make(map[substrate.PageKey]int64),
		readBuf:  make([]byte, pageSize),
		writeBuf: make([]byte, pageSize),
		zeroBuf:  make([]byte, pageSize),
	}
	if mapped {
		// Mapping unavailable here leaves the store on pread/pwrite; a
		// real truncate failure (ENOSPC) still aborts.
		if err := s.mapCapacity(mappedInitialPages); err != nil && !errors.Is(err, errMapUnsupported) {
			f.Close()
			os.Remove(s.path)
			return nil, err
		}
	}
	return s, nil
}

// Path returns the backing file's path.
func (s *Store) Path() string { return filepath.Clean(s.path) }

// Mapped reports whether the mapping is live (false = pread/pwrite).
func (s *Store) Mapped() bool { return s.data != nil }

// mapCapacity grows the file to capPages pages and maps it afresh. After
// an error the store is on pread/pwrite unless the truncate itself failed.
func (s *Store) mapCapacity(capPages int64) error {
	if err := s.f.Truncate(capPages * int64(s.pageSize)); err != nil {
		return &hiperr.Error{Op: "filestore.grow",
			Err: fmt.Errorf("%s to %d pages: %v: %w", s.path, capPages, err, hiperr.ErrDiskIO)}
	}
	if s.data != nil {
		err := unmapFile(s.data)
		s.data = nil
		if err != nil {
			return &hiperr.Error{Op: "filestore.grow",
				Err: fmt.Errorf("%s unmap: %v: %w", s.path, err, hiperr.ErrDiskIO)}
		}
	}
	data, err := mapFile(s.f, capPages*int64(s.pageSize))
	if err != nil {
		return err
	}
	s.data, s.capPages = data, capPages
	return nil
}

// Close unmaps and closes the backing file, removing it if the store was
// opened with OpenTemp or OpenTempMapped. The unmap always runs; the first
// error wins.
func (s *Store) Close() error {
	var err error
	if s.data != nil {
		err = unmapFile(s.data)
		s.data = nil
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if s.temp {
		os.Remove(s.path)
	}
	return err
}

// PageSize implements substrate.Store.
func (s *Store) PageSize() int { return s.pageSize }

// slot returns the file slot for key, allocating one on first use; fresh
// reports whether the slot was allocated by this call (so a failed first
// write can release it again). Slots freed by DeletePage are reused before
// the file grows.
func (s *Store) slot(key substrate.PageKey) (n int64, fresh bool) {
	if n, ok := s.slots[key]; ok {
		return n, false
	}
	if l := len(s.free); l > 0 {
		n = s.free[l-1]
		s.free = s.free[:l-1]
	} else {
		n = s.nextSlot
		s.nextSlot++
	}
	s.slots[key] = n
	return n, true
}

// releaseSlot returns slot n to the allocator: the tail slot shrinks the
// high-water mark, anything else goes on the free list for reuse.
func (s *Store) releaseSlot(n int64) {
	if n == s.nextSlot-1 {
		s.nextSlot--
		return
	}
	s.free = append(s.free, n)
}

// WritePage implements substrate.Store: the page is written to its slot at
// real I/O cost. Nil data writes zeroes (presence must be durable — unlike
// the simulation there is no metadata-only mode; a cache that forgot its
// bytes would serve garbage). A real I/O failure (ENOSPC, EIO) comes back
// as a typed hiperr error wrapping ErrDiskIO — the VM's pageout path keeps
// the page dirty and resident, so no data is lost; a first write that fails
// does not record the key as present.
func (s *Store) WritePage(key substrate.PageKey, data []byte) error {
	if key.Offset%int64(s.pageSize) != 0 {
		panic(fmt.Sprintf("filestore: unaligned store offset %d", key.Offset))
	}
	if len(data) > s.pageSize {
		panic(fmt.Sprintf("filestore: page data %d bytes exceeds page size %d", len(data), s.pageSize))
	}
	n, fresh := s.slot(key)
	if err := s.put(n, data); err != nil {
		if fresh {
			delete(s.slots, key)
			s.releaseSlot(n)
		}
		return err
	}
	s.writes++
	return nil
}

// put writes data, zero-padded to a full page, into slot n: a copy into
// the mapping (growing it as needed), or a pwrite.
func (s *Store) put(n int64, data []byte) error {
	if s.data != nil && n >= s.capPages {
		newCap := s.capPages * 2
		for n >= newCap {
			newCap *= 2
		}
		if err := s.mapCapacity(newCap); err != nil && !errors.Is(err, errMapUnsupported) {
			return err
		}
		// On errMapUnsupported the filesystem stopped cooperating mid-run:
		// the mapping is gone and pread/pwrite serves from here on.
	}
	off := n * int64(s.pageSize)
	if s.data != nil {
		dst := s.data[off : off+int64(s.pageSize)]
		copy(dst[copy(dst, data):], s.zeroBuf)
		return nil
	}
	buf := s.zeroBuf
	if len(data) > 0 {
		if len(data) == s.pageSize {
			buf = data
		} else {
			copy(s.writeBuf, data)
			copy(s.writeBuf[len(data):], s.zeroBuf[len(data):])
			buf = s.writeBuf
		}
	}
	if _, err := s.f.WriteAt(buf, off); err != nil {
		return &hiperr.Error{Op: "filestore.write",
			Err: fmt.Errorf("%s slot %d: %v: %w", s.path, n, err, hiperr.ErrDiskIO)}
	}
	return nil
}

// ReadPage implements substrate.Store. The returned slice is the store's
// reusable read buffer, valid until the next ReadPage (WritePage uses a
// separate scratch buffer and never clobbers it) — never a window into the
// mapping, which can move on growth or vanish on Close. The VM copies it
// into the destination frame immediately. A real I/O failure returns
// ok=true (the page is present) with a typed hiperr error wrapping
// ErrDiskIO, which feeds the VM's fault retry ladder.
func (s *Store) ReadPage(key substrate.PageKey) ([]byte, bool, error) {
	n, ok := s.slots[key]
	if !ok {
		return nil, false, nil
	}
	off := n * int64(s.pageSize)
	if s.data != nil {
		copy(s.readBuf, s.data[off:off+int64(s.pageSize)])
	} else if _, err := s.f.ReadAt(s.readBuf, off); err != nil {
		return nil, true, &hiperr.Error{Op: "filestore.read",
			Err: fmt.Errorf("%s slot %d: %v: %w", s.path, n, err, hiperr.ErrDiskIO)}
	}
	s.reads++
	return s.readBuf, true, nil
}

// Contains implements substrate.Store.
func (s *Store) Contains(key substrate.PageKey) bool {
	_, ok := s.slots[key]
	return ok
}

// Len implements substrate.Store.
func (s *Store) Len() int { return len(s.slots) }

// DeletePage implements substrate.Store: the key's slot returns to the
// free list (or shrinks the high-water mark) and is reused by later writes.
// The slot's bytes are not scrubbed — the store is a cache backend, and a
// freed slot is unreachable through the index.
func (s *Store) DeletePage(key substrate.PageKey) bool {
	n, ok := s.slots[key]
	if !ok {
		return false
	}
	delete(s.slots, key)
	s.releaseSlot(n)
	return true
}

// Sync implements substrate.Store: fsync the backing file, which covers
// pages dirtied through the mapping on the platforms we map on.
func (s *Store) Sync() error {
	if err := s.f.Sync(); err != nil {
		return &hiperr.Error{Op: "filestore.sync",
			Err: fmt.Errorf("%s: %v: %w", s.path, err, hiperr.ErrDiskIO)}
	}
	return nil
}

// StoreIO implements substrate.Store: the page transfers in and out of the
// file.
func (s *Store) StoreIO() (reads, writes int64) { return s.reads, s.writes }

var _ substrate.Store = (*Store)(nil)
