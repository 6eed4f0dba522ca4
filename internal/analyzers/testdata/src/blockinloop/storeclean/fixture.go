// Package fixture shows the sanctioned storage shape: concrete backends
// are composed and opened before the loop starts, and loop closures reach
// pages only through the substrate.Store interface — the seam where the
// blockinloop chain deliberately breaks, because whichever backend the
// kernel was assembled with owns the blocking consequences.
//
//hipec:fixture-as internal/server
package fixture

import (
	"hipec/internal/core"
	"hipec/internal/store"
	"hipec/internal/substrate"
)

// assemble composes a tiered backend outside the loop; this is setup-time
// code on the caller's goroutine, free to do real I/O.
func assemble(pageSize int) (substrate.Store, error) {
	slow, err := store.Open("file", "", pageSize)
	if err != nil {
		return nil, err
	}
	return store.NewTiered(substrate.NewMemStore(pageSize, true), slow, store.WriteThrough, 64), nil
}

// run drives pages through the interface seam from inside the loop.
func run(l *core.Loop, st substrate.Store) error {
	return l.Call(func(k *core.Kernel) error {
		if err := st.WritePage(substrate.PageKey{Object: 1}, nil); err != nil {
			return err
		}
		if _, _, err := st.ReadPage(substrate.PageKey{Object: 1}); err != nil {
			return err
		}
		return st.Sync() // Sync is part of the interface seam too
	})
}
