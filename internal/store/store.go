// Package store grows substrate.Store from two implementations (the
// simulation's MemStore, the realtime slot-file filestore) into a family
// of composable backends, and opens any of them by kind name (Open):
//
//   - Tiered: a fast tier caching a slow tier, write-through or
//     write-back, with promotion on read and FIFO eviction at a fast-tier
//     page cap — mem-over-file is the classic shape, but any Store pair
//     composes.
//   - Sharded: deterministic object-ID/offset partitioned fan-out across N
//     child stores (N files, N devices, N tiered stacks...).
//
// The "mmap" kind is the filestore in its mapped I/O mode, not a backend of
// its own. Every Store implements the whole interface — deletion, Sync,
// I/O counters and Close included — so the composites and wrappers here
// call their children directly and forward by embedding.
//
// Every backend keeps the substrate.Store contract: misuse (unaligned
// offsets, oversize pages) panics, real I/O failures come back wrapped in
// the hiperr taxonomy terminating in ErrDiskIO, and a failed write never
// records the key as present with garbage. The conformance kit in
// storetest pins the contract against every implementation, and the
// differential tests in this package pin each composite byte-equivalent to
// a plain MemStore oracle.
//
// Like the filestore, none of these backends is safe for concurrent use on
// its own: in realtime mode every access is serialized by the kernel's
// actor loop (core.Loop). The hipecvet blockinloop/loopcapture passes
// enforce the seam — loop commands reach stores only through the
// substrate.Store interface, and no concrete store handle may escape a
// Loop.Call closure.
package store

import (
	"errors"
	"fmt"

	"hipec/internal/disk/filestore"
	"hipec/internal/hiperr"
	"hipec/internal/substrate"
)

// Syncer and IOStats name parts of substrate.Store that every backend
// implements. They remain only because the perfbench harness names them.
type (
	Syncer  = substrate.Syncer
	IOStats = substrate.IOStats
)

// Backend is what Open returns: a Store plus the label every CLI-selected
// backend prints.
type Backend interface {
	substrate.Store
	Label() string
}

// Kinds lists the backend names Open accepts, for flag help.
func Kinds() string { return "file, mem, tiered, sharded, mmap" }

// Defaults for CLI-opened composite backends.
const (
	// DefaultTierCap is the fast-tier page cap of an Open-built tiered
	// store (1 MB of 4 KB pages).
	DefaultTierCap = 256
	// DefaultShards is the child count of an Open-built sharded store.
	DefaultShards = 4
)

// Open builds the named backend kind for pages of pageSize bytes. path
// locates the backing file(s): the file itself for "file" and "mmap", the
// slow-tier file for "tiered", and a stem suffixed ".shard<N>" for
// "sharded"; an empty path uses fresh temp files that Close removes.
// "mem" ignores path. Unknown kinds are an error (not a panic: the kind
// usually arrives from a flag).
func Open(kind, path string, pageSize int) (Backend, error) {
	switch kind {
	case "", "file", "mmap":
		fs, err := openFile(path, kind == "mmap", pageSize)
		if err != nil {
			return nil, err
		}
		label := "file:"
		if kind == "mmap" {
			label = "mmap:"
			if !fs.Mapped() {
				label = "mmap-fallback:"
			}
		}
		return &labeled{fs, label + fs.Path()}, nil
	case "mem":
		return &labeled{substrate.NewMemStore(pageSize, true), "mem"}, nil
	case "tiered":
		slow, err := openFile(path, false, pageSize)
		if err != nil {
			return nil, err
		}
		fast := substrate.NewMemStore(pageSize, true)
		t := NewTiered(fast, slow, WriteThrough, DefaultTierCap)
		return &labeled{t, fmt.Sprintf("tiered(mem[%d]->file:%s)", DefaultTierCap, slow.Path())}, nil
	case "sharded":
		children := make([]substrate.Store, DefaultShards)
		var first string
		for i := range children {
			shardPath := path
			if path != "" {
				shardPath = fmt.Sprintf("%s.shard%d", path, i)
			}
			fs, err := openFile(shardPath, false, pageSize)
			if err != nil {
				for _, c := range children[:i] {
					c.Close()
				}
				return nil, err
			}
			children[i] = fs
			if i == 0 {
				first = fs.Path()
			}
		}
		return &labeled{NewSharded(children...), fmt.Sprintf("sharded(%d x file:%s...)", DefaultShards, first)}, nil
	}
	return nil, &hiperr.Error{Op: "store.open",
		Err: fmt.Errorf("unknown store kind %q (want %s): %w", kind, Kinds(), hiperr.ErrBadRequest)}
}

// openFile opens a filestore at path, or a temp-backed one when path is
// empty, in its mapped I/O mode when mapped.
func openFile(path string, mapped bool, pageSize int) (*filestore.Store, error) {
	switch {
	case path == "" && mapped:
		return filestore.OpenTempMapped("", pageSize)
	case path == "":
		return filestore.OpenTemp("", pageSize)
	case mapped:
		return filestore.OpenMapped(path, pageSize)
	}
	return filestore.Open(path, pageSize)
}

// labeled adapts any Store into a Backend.
type labeled struct {
	substrate.Store
	label string
}

func (b *labeled) Label() string { return b.label }

// diskErr wraps a child-store failure with composite context, preserving
// the child's chain and guaranteeing the ErrDiskIO sentinel even when the
// child's error predates the taxonomy.
func diskErr(op, context string, err error) error {
	if errors.Is(err, hiperr.ErrDiskIO) {
		return &hiperr.Error{Op: op, Err: fmt.Errorf("%s: %w", context, err)}
	}
	return &hiperr.Error{Op: op, Err: fmt.Errorf("%s: %v: %w", context, err, hiperr.ErrDiskIO)}
}

// checkPage panics on the caller bugs every backend rejects identically.
func checkPage(name string, pageSize int, key substrate.PageKey, data []byte) {
	if key.Offset%int64(pageSize) != 0 {
		panic(fmt.Sprintf("%s: unaligned store offset %d", name, key.Offset))
	}
	if len(data) > pageSize {
		panic(fmt.Sprintf("%s: page data %d bytes exceeds page size %d", name, len(data), pageSize))
	}
}
