// Package fixture exercises the loopcapture pass over concrete page
// stores: a backend handle is loop-confined single-writer state, and
// parking one anywhere that outlives a Loop closure invites unserialized
// I/O on buffers the loop is still using.
//
//hipec:fixture-as internal/fixture
package fixture

import (
	"hipec/internal/core"
	"hipec/internal/disk/filestore"
	"hipec/internal/store"
)

// leakedStore is where the bad closure parks the backend.
var leakedStore *filestore.Store

// run leaks store handles four ways.
func run(l *core.Loop, fs *filestore.Store, tr *store.Tiered, sink chan *store.Sharded, sh *store.Sharded) error {
	var outer *store.Tiered
	err := l.Call(func(k *core.Kernel) error {
		go prefetch(sh)  // want `loopcapture: \*store\.Sharded "sh" escapes into a goroutine`
		leakedStore = fs // want `loopcapture: \*filestore\.Store stored in package-level variable "leakedStore"`
		outer = tr       // want `loopcapture: \*store\.Tiered stored in "outer", which outlives the Loop closure`
		sink <- sh       // want `loopcapture: \*store\.Sharded sent on a channel from inside a Loop closure`
		return nil
	})
	_ = outer
	return err
}

func prefetch(s *store.Sharded) { _ = s }
