package store

import (
	"fmt"

	"hipec/internal/substrate"
)

// Sharded fans a page store out across N child stores — N files, N
// devices, N tiered stacks — partitioned by a deterministic hash of the
// page key. The same key always lands on the same shard for a given child
// count, across runs and restarts (the index is content-addressed, not
// history-dependent), so a sharded store reopened over the same N backing
// files finds its pages.
//
// Each shard owns durability for its partition. A failing shard's error
// surfaces wrapped in the hiperr taxonomy (terminating in ErrDiskIO) with
// the shard named; the other shards are unaffected — a single dying device
// degrades only the keys it owns.
type Sharded struct {
	children []substrate.Store
	pageSize int
}

// NewSharded builds a sharded store over the children, which must all
// share a page size. At least one child is required (one child is a valid,
// if pointless, configuration — it keeps harness matrices simple).
func NewSharded(children ...substrate.Store) *Sharded {
	if len(children) == 0 {
		panic("store: sharded store needs at least one child")
	}
	ps := children[0].PageSize()
	for i, c := range children {
		if c == nil {
			panic("store: sharded store has a nil child")
		}
		if c.PageSize() != ps {
			panic(fmt.Sprintf("store: sharded child %d page size %d differs from %d",
				i, c.PageSize(), ps))
		}
	}
	return &Sharded{children: append([]substrate.Store(nil), children...), pageSize: ps}
}

// Shards reports the child count.
func (s *Sharded) Shards() int { return len(s.children) }

// shard maps key to its owning child: a splitmix64-style finalizer over
// the object ID and page index. Page-aligned offsets are divided down so
// consecutive pages of one object scatter rather than clump.
func (s *Sharded) shard(key substrate.PageKey) int {
	z := key.Object + 0x9E3779B97F4A7C15*(uint64(key.Offset/int64(s.pageSize))+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(len(s.children)))
}

// PageSize implements substrate.Store.
func (s *Sharded) PageSize() int { return s.pageSize }

// WritePage implements substrate.Store.
func (s *Sharded) WritePage(key substrate.PageKey, data []byte) error {
	checkPage("store.sharded", s.pageSize, key, data)
	i := s.shard(key)
	if err := s.children[i].WritePage(key, data); err != nil {
		return diskErr("store.sharded.write", fmt.Sprintf("shard %d", i), err)
	}
	return nil
}

// ReadPage implements substrate.Store.
func (s *Sharded) ReadPage(key substrate.PageKey) ([]byte, bool, error) {
	i := s.shard(key)
	data, ok, err := s.children[i].ReadPage(key)
	if err != nil {
		return nil, ok, diskErr("store.sharded.read", fmt.Sprintf("shard %d", i), err)
	}
	return data, ok, nil
}

// Contains implements substrate.Store.
func (s *Sharded) Contains(key substrate.PageKey) bool {
	return s.children[s.shard(key)].Contains(key)
}

// Len implements substrate.Store: the sum over shards.
func (s *Sharded) Len() int {
	n := 0
	for _, c := range s.children {
		n += c.Len()
	}
	return n
}

// DeletePage implements substrate.Store on the owning shard.
func (s *Sharded) DeletePage(key substrate.PageKey) bool {
	return s.children[s.shard(key)].DeletePage(key)
}

// Sync implements substrate.Store: every shard syncs; sweeping continues
// past failures and the first error (shard-tagged) returns.
func (s *Sharded) Sync() error {
	var first error
	for i, c := range s.children {
		if err := c.Sync(); err != nil && first == nil {
			first = diskErr("store.sharded.sync", fmt.Sprintf("shard %d", i), err)
		}
	}
	return first
}

// StoreIO implements substrate.Store: summed over shards.
func (s *Sharded) StoreIO() (reads, writes int64) {
	for _, c := range s.children {
		r, w := c.StoreIO()
		reads += r
		writes += w
	}
	return reads, writes
}

// Close closes every child — all of them, even after a failure — and
// returns the first error.
func (s *Sharded) Close() error {
	var first error
	for _, c := range s.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ substrate.Store = (*Sharded)(nil)
