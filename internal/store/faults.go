package store

import (
	"fmt"

	"hipec/internal/faultinj"
	"hipec/internal/hiperr"
	"hipec/internal/substrate"
)

// InjectFaults wraps child so the deterministic fault-injection plane
// decides whether each page transfer fails: writes consult the
// faultinj.DiskWrite point, reads faultinj.DiskRead. An injected failure
// surfaces exactly like a real one — wrapped in hiperr.ErrDiskIO, with the
// failed write never recorded as present — so the whole recovery ladder
// above real backends (the VM retry path, emm.FailoverPager) is testable
// on a seeded schedule. Slow decisions are ignored at this layer: a store
// has no clock to charge, and real backends take real time already.
//
// A nil plane decides nothing; the wrapper is then a transparent
// pass-through (the same contract as every other faultinj consumer).
func InjectFaults(child substrate.Store, plane *faultinj.Plane) substrate.Store {
	return &faultStore{Store: child, plane: plane}
}

// faultStore forwards everything but the two transfers to the child.
type faultStore struct {
	substrate.Store
	plane *faultinj.Plane
}

// WritePage fails before touching the child, so an injected failure never
// records presence.
func (s *faultStore) WritePage(key substrate.PageKey, data []byte) error {
	if s.plane.Decide(faultinj.DiskWrite).Fail {
		return &hiperr.Error{Op: "store.inject.write",
			Err: fmt.Errorf("injected write fault at %v: %w", key, hiperr.ErrDiskIO)}
	}
	return s.Store.WritePage(key, data)
}

// ReadPage reports an injected failure as "present but unreadable" when
// the child holds the page — the same shape as a real medium error.
func (s *faultStore) ReadPage(key substrate.PageKey) ([]byte, bool, error) {
	if s.plane.Decide(faultinj.DiskRead).Fail {
		return nil, s.Store.Contains(key), &hiperr.Error{Op: "store.inject.read",
			Err: fmt.Errorf("injected read fault at %v: %w", key, hiperr.ErrDiskIO)}
	}
	return s.Store.ReadPage(key)
}

var _ substrate.Store = (*faultStore)(nil)
