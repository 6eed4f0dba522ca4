package emm

import (
	"fmt"

	"hipec/internal/hiperr"
	"hipec/internal/substrate"
	"hipec/internal/vm"
)

// BackendPager adapts any substrate.Store into a vm.Pager, completing the
// recovery ladder over real backends: a store (tiered, sharded,
// mmap-backed, fault-injected) becomes a pager that can sit as either side
// of a FailoverPager. Evictions (DataReturn) write pages into the store;
// page-ins (DataRequest) read them back, zero-filling the tail when the
// store holds presence without content.
//
// The pager is as single-threaded as the store under it: it must be driven
// from the kernel loop, like every pager.
type BackendPager struct {
	name  string
	store substrate.Store
}

// NewBackendPager wraps store as a pager named name.
func NewBackendPager(name string, store substrate.Store) *BackendPager {
	if store == nil {
		panic("emm: backend pager needs a store")
	}
	return &BackendPager{name: name, store: store}
}

// Store exposes the wrapped store for inspection.
func (p *BackendPager) Store() substrate.Store { return p.store }

// PagerName implements vm.Pager.
func (p *BackendPager) PagerName() string { return p.name }

// DataRequest implements vm.Pager: a store read. A store error surfaces as
// the pager's failure (the VM retry ladder, or a FailoverPager above us,
// takes it from there); an absent page is a zero-fill, not an error.
func (p *BackendPager) DataRequest(obj uint64, off int64, dst []byte) (bool, error) {
	data, ok, err := p.store.ReadPage(substrate.PageKey{Object: obj, Offset: off})
	if err != nil {
		return false, &hiperr.Error{Op: "emm.backend.request",
			Err: fmt.Errorf("pager %q obj %d off %d: %w", p.name, obj, off, err)}
	}
	if !ok {
		return false, nil
	}
	n := copy(dst, data)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return true, nil
}

// DataReturn implements vm.Pager: a store write.
func (p *BackendPager) DataReturn(obj uint64, off int64, src []byte) error {
	if err := p.store.WritePage(substrate.PageKey{Object: obj, Offset: off}, src); err != nil {
		return &hiperr.Error{Op: "emm.backend.return",
			Err: fmt.Errorf("pager %q obj %d off %d: %w", p.name, obj, off, err)}
	}
	return nil
}

// PagerTerminate implements vm.Pager. Stores are keyed per page and cannot
// enumerate an object's pages cheaply; the backing pages are simply left
// behind, exactly as the filestore-backed realtime engine leaves them;
// per-key reclamation (Store.DeletePage) belongs to a higher layer.
func (p *BackendPager) PagerTerminate(obj uint64) {}

// Contains reports whether the store holds (obj, off); the FailoverPager
// chaos invariant uses it on the durable side.
func (p *BackendPager) Contains(obj uint64, off int64) bool {
	return p.store.Contains(substrate.PageKey{Object: obj, Offset: off})
}

var _ vm.Pager = (*BackendPager)(nil)
