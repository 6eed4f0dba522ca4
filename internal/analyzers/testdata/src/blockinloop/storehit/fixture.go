// Package fixture exercises the blockinloop pass over concrete page
// stores: calling a backend's I/O methods from inside a Loop command
// closure stalls every client of the loop, whether the call is direct or
// hidden behind a helper. The sanctioned shape routes storage through the
// substrate.Store interface the kernel was assembled with — see the
// storeclean fixture.
//
//hipec:fixture-as internal/server
package fixture

import (
	"hipec/internal/core"
	"hipec/internal/disk/filestore"
	"hipec/internal/store"
	"hipec/internal/substrate"
)

// run drives concrete store I/O from the engine goroutine four ways.
func run(l *core.Loop, fs *filestore.Store, tr *store.Tiered, sh *store.Sharded) error {
	return l.Call(func(k *core.Kernel) error {
		if err := fs.WritePage(substrate.PageKey{Object: 1}, nil); err != nil { // want `blockinloop: blocking call reachable from a Loop command closure .* \(filestore\.Store\)\.WritePage`
			return err
		}
		if err := fs.Sync(); err != nil { // want `blockinloop: blocking call reachable from a Loop command closure .* \(filestore\.Store\)\.Sync`
			return err
		}
		if _, _, err := sh.ReadPage(substrate.PageKey{Object: 1}); err != nil { // want `blockinloop: blocking call reachable from a Loop command closure .* \(store\.Sharded\)\.ReadPage`
			return err
		}
		return flush(tr) // want `blockinloop: blocking call reachable from a Loop command closure .*flush -> \(store\.Tiered\)\.Sync`
	})
}

// flush hides the blocking store call one frame deep; the chain is chased.
func flush(tr *store.Tiered) error {
	return tr.Sync()
}
