package store

import (
	"path/filepath"
	"testing"

	"hipec/internal/disk/filestore"
	"hipec/internal/store/storetest"
	"hipec/internal/substrate"
)

// TestStoreConformance runs the storetest kit against every Store
// implementation in the tree — the reference MemStore, the slot-file
// store in both I/O modes, each composite in this package (in both modes
// and over both child kinds), and the kit's own fault-injecting wrapper.
// One contract, one suite.
func TestStoreConformance(t *testing.T) {
	const ps = 512
	matrix := []struct {
		name    string
		factory storetest.Factory
	}{
		{"Mem", func(t *testing.T) substrate.Store {
			return substrate.NewMemStore(ps, true)
		}},
		{"File", func(t *testing.T) substrate.Store {
			s, err := filestore.Open(filepath.Join(t.TempDir(), "pages.dat"), ps)
			if err != nil {
				t.Fatalf("filestore.Open: %v", err)
			}
			return s
		}},
		{"TieredMemMemWriteThrough", func(t *testing.T) substrate.Store {
			// Tiny fast tier so the kit's workloads force eviction.
			return NewTiered(substrate.NewMemStore(ps, true),
				substrate.NewMemStore(ps, true), WriteThrough, 4)
		}},
		{"TieredMemFileWriteBack", func(t *testing.T) substrate.Store {
			slow, err := filestore.OpenTemp(t.TempDir(), ps)
			if err != nil {
				t.Fatalf("filestore.OpenTemp: %v", err)
			}
			return NewTiered(substrate.NewMemStore(ps, true), slow, WriteBack, 4)
		}},
		{"ShardedMem", func(t *testing.T) substrate.Store {
			return NewSharded(
				substrate.NewMemStore(ps, true),
				substrate.NewMemStore(ps, true),
				substrate.NewMemStore(ps, true))
		}},
		{"ShardedFile", func(t *testing.T) substrate.Store {
			children := make([]substrate.Store, 3)
			for i := range children {
				s, err := filestore.OpenTemp(t.TempDir(), ps)
				if err != nil {
					t.Fatalf("filestore.OpenTemp: %v", err)
				}
				children[i] = s
			}
			return NewSharded(children...)
		}},
		{"Mmap", func(t *testing.T) substrate.Store {
			s, err := filestore.OpenTempMapped(t.TempDir(), ps)
			if err != nil {
				t.Fatalf("filestore.OpenTempMapped: %v", err)
			}
			return s
		}},
		{"MmapFallback", func(t *testing.T) substrate.Store {
			// A mapped store that cannot map opens in exactly this state:
			// the same slot file on pread/pwrite. The mid-run drop from
			// mapped to pread/pwrite is tested in the filestore package.
			s, err := filestore.OpenTemp(t.TempDir(), ps)
			if err != nil {
				t.Fatalf("filestore.OpenTemp: %v", err)
			}
			return s
		}},
		{"FailingPassthrough", func(t *testing.T) substrate.Store {
			// The kit's own wrapper with no faults armed must itself conform.
			return &storetest.Failing{Store: substrate.NewMemStore(ps, true)}
		}},
		{"OpenTiered", func(t *testing.T) substrate.Store {
			b, err := Open("tiered", "", ps)
			if err != nil {
				t.Fatalf("Open(tiered): %v", err)
			}
			return b
		}},
		{"OpenSharded", func(t *testing.T) substrate.Store {
			b, err := Open("sharded", "", ps)
			if err != nil {
				t.Fatalf("Open(sharded): %v", err)
			}
			return b
		}},
		{"OpenMmapKind", func(t *testing.T) substrate.Store {
			b, err := Open("mmap", "", ps)
			if err != nil {
				t.Fatalf("Open(mmap): %v", err)
			}
			return b
		}},
	}
	for _, m := range matrix {
		t.Run(m.name, func(t *testing.T) { storetest.Run(t, m.factory) })
	}
}
