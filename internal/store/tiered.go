package store

import (
	"fmt"
	"slices"

	"hipec/internal/substrate"
)

// TieredMode selects who owns durability in a Tiered store.
type TieredMode uint8

const (
	// WriteThrough writes every page to both tiers: the slow tier owns
	// durability and the fast tier is a clean cache — except after a
	// slow-tier write failure, when the fast copy is kept and marked dirty
	// so no data is lost (Sync retries the flush).
	WriteThrough TieredMode = iota
	// WriteBack writes land in the fast tier only and are flushed to the
	// slow tier on eviction, Sync, or Close: the fast tier owns durability
	// for dirty pages, trading crash-safety for write latency.
	WriteBack
)

// String names the mode.
func (m TieredMode) String() string {
	if m == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// Tiered layers a fast Store over a slow one: reads hit the fast tier
// first and promote slow-tier pages into it, writes follow the TieredMode,
// and when the fast tier exceeds cap pages the oldest resident is evicted
// (flushed first if dirty). The fast tier must be exclusively owned by the
// Tiered store; the slow tier may be any Store.
//
// Failure semantics: a fast-tier write failure surfaces immediately and
// records nothing. A slow-tier write failure — on a write-through store,
// on eviction, or on Sync — keeps the fast-tier copy resident and dirty,
// so the error is recoverable: the page stays readable and a later Sync
// (or eviction retry) flushes it. Errors wrap hiperr.ErrDiskIO with the
// failing tier named.
type Tiered struct {
	fast, slow substrate.Store
	mode       TieredMode
	cap        int

	dirty map[substrate.PageKey]bool
	order []substrate.PageKey // fast-tier FIFO residency queue (stale keys skipped at pop)
	count int                 // distinct keys across both tiers
}

// NewTiered builds a tiered store. cap bounds the fast tier in pages
// (<= 0 means unbounded — no eviction, useful for a pure write buffer).
// Both tiers must share a page size, and fast must not be the same store
// as slow.
func NewTiered(fast, slow substrate.Store, mode TieredMode, cap int) *Tiered {
	if fast == nil || slow == nil {
		panic("store: tiered store needs both tiers")
	}
	if fast == slow {
		panic("store: tiered fast and slow tiers must be distinct stores")
	}
	if fast.PageSize() != slow.PageSize() {
		panic(fmt.Sprintf("store: tiered page sizes differ (fast %d, slow %d)",
			fast.PageSize(), slow.PageSize()))
	}
	return &Tiered{
		fast: fast, slow: slow, mode: mode, cap: cap,
		dirty: make(map[substrate.PageKey]bool),
	}
}

// PageSize implements substrate.Store.
func (t *Tiered) PageSize() int { return t.fast.PageSize() }

// WritePage implements substrate.Store: the page always lands in the fast
// tier; write-through pushes it down immediately, write-back defers to
// eviction/Sync. A slow-tier failure keeps the fast copy dirty and returns
// the wrapped error — the data is not lost.
func (t *Tiered) WritePage(key substrate.PageKey, data []byte) error {
	checkPage("store.tiered", t.PageSize(), key, data)
	wasPresent := t.Contains(key)
	wasInFast := t.fast.Contains(key)
	if err := t.fast.WritePage(key, data); err != nil {
		return diskErr("store.tiered.write", "fast tier", err)
	}
	if !wasPresent {
		t.count++
	}
	if !wasInFast {
		t.order = append(t.order, key)
	}
	var werr error
	if t.mode == WriteThrough {
		if err := t.slow.WritePage(key, data); err != nil {
			t.dirty[key] = true
			werr = diskErr("store.tiered.write", "slow tier", err)
		} else {
			delete(t.dirty, key)
		}
	} else {
		t.dirty[key] = true
	}
	if err := t.evict(); err != nil && werr == nil {
		werr = err
	}
	return werr
}

// evict flushes-and-drops fast-tier residents in FIFO order until the tier
// is back under cap. A dirty victim that fails to flush stays resident
// (re-queued at the back, still dirty) and stops the sweep with the error.
func (t *Tiered) evict() error {
	if t.cap <= 0 {
		return nil
	}
	for t.fast.Len() > t.cap && len(t.order) > 0 {
		victim := t.order[0]
		t.order = t.order[1:]
		if !t.fast.Contains(victim) {
			continue // deleted since queued
		}
		if t.dirty[victim] {
			data, _, err := t.fast.ReadPage(victim)
			if err == nil {
				err = t.slow.WritePage(victim, data)
			}
			if err != nil {
				t.order = append(t.order, victim)
				return diskErr("store.tiered.evict", "slow tier", err)
			}
			delete(t.dirty, victim)
		}
		t.fast.DeletePage(victim)
	}
	return nil
}

// ReadPage implements substrate.Store: fast tier first, then the slow
// tier, promoting slow-tier hits into the fast tier (clean). A promotion
// that cannot make room (eviction flush failure) is abandoned silently —
// the read itself succeeded, and the victim stays safe in the fast tier.
func (t *Tiered) ReadPage(key substrate.PageKey) ([]byte, bool, error) {
	if data, ok, err := t.fast.ReadPage(key); ok || err != nil {
		if err != nil {
			return nil, ok, diskErr("store.tiered.read", "fast tier", err)
		}
		return data, ok, nil
	}
	data, ok, err := t.slow.ReadPage(key)
	if err != nil {
		return nil, ok, diskErr("store.tiered.read", "slow tier", err)
	}
	if !ok {
		return nil, false, nil
	}
	// Promote a copy; the page is clean (the slow tier holds it). The
	// returned buffer is the slow tier's — the fast write copies, and the
	// eviction sweep never touches the slow tier's read buffer.
	if t.fast.WritePage(key, data) == nil {
		t.order = append(t.order, key)
		_ = t.evict()
	}
	return data, true, nil
}

// Contains implements substrate.Store.
func (t *Tiered) Contains(key substrate.PageKey) bool {
	return t.fast.Contains(key) || t.slow.Contains(key)
}

// Len implements substrate.Store: distinct keys across both tiers.
func (t *Tiered) Len() int { return t.count }

// DeletePage implements substrate.Store: the key leaves both tiers.
func (t *Tiered) DeletePage(key substrate.PageKey) bool {
	present := t.Contains(key)
	t.fast.DeletePage(key)
	t.slow.DeletePage(key)
	delete(t.dirty, key)
	if present {
		t.count--
	}
	return present
}

// Dirty reports how many fast-tier pages are not yet durable in the slow
// tier (write-back residue plus write-through flush failures).
func (t *Tiered) Dirty() int { return len(t.dirty) }

// FastLen reports the fast tier's resident page count.
func (t *Tiered) FastLen() int { return t.fast.Len() }

// Sync implements substrate.Store: flush every dirty page to the slow tier
// (in deterministic key order), then sync the slow tier. Flushing
// continues past failures; the first error is returned.
func (t *Tiered) Sync() error {
	keys := make([]substrate.PageKey, 0, len(t.dirty))
	for k := range t.dirty {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b substrate.PageKey) int {
		if a.Object != b.Object {
			if a.Object < b.Object {
				return -1
			}
			return 1
		}
		switch {
		case a.Offset < b.Offset:
			return -1
		case a.Offset > b.Offset:
			return 1
		}
		return 0
	})
	var first error
	for _, k := range keys {
		data, ok, err := t.fast.ReadPage(k)
		if !ok && err == nil {
			delete(t.dirty, k) // dirty entry with no fast copy: nothing to flush
			continue
		}
		if err == nil {
			err = t.slow.WritePage(k, data)
		}
		if err != nil {
			if first == nil {
				first = diskErr("store.tiered.sync", "slow tier", err)
			}
			continue
		}
		delete(t.dirty, k)
	}
	if first != nil {
		return first
	}
	return t.slow.Sync()
}

// StoreIO implements substrate.Store: the sum of both tiers' transfers,
// so a write-through write counts once per tier.
func (t *Tiered) StoreIO() (reads, writes int64) {
	fr, fw := t.fast.StoreIO()
	sr, sw := t.slow.StoreIO()
	return fr + sr, fw + sw
}

// Close flushes dirty pages (Sync) and closes both tiers. The first error
// wins but every closer runs.
func (t *Tiered) Close() error {
	err := t.Sync()
	if cerr := t.fast.Close(); err == nil {
		err = cerr
	}
	if cerr := t.slow.Close(); err == nil {
		err = cerr
	}
	return err
}

var _ substrate.Store = (*Tiered)(nil)
