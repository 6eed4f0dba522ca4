package store

import (
	"os"
	"runtime"
	"testing"
	"time"

	"hipec/internal/disk/filestore"
	"hipec/internal/substrate"
)

// countFDs reports the process's open descriptor count via /proc, or -1
// where /proc is unavailable (the fd-leak checks then skip).
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestCloseReleasesFDs opens and closes every file-backed backend kind and
// checks the descriptor count returns to its baseline — no leaked files
// from tiered stacks, shard fan-outs, or dropped mmap fallbacks.
func TestCloseReleasesFDs(t *testing.T) {
	if countFDs(t) < 0 {
		t.Skip("/proc/self/fd unavailable")
	}
	const ps = 256
	kinds := []string{"file", "tiered", "sharded", "mmap"}
	// Warm any lazy runtime descriptors before taking the baseline.
	for _, kind := range kinds {
		b, err := Open(kind, "", ps)
		if err != nil {
			t.Fatalf("Open(%s): %v", kind, err)
		}
		b.Close()
	}
	base := countFDs(t)
	for round := 0; round < 3; round++ {
		for _, kind := range kinds {
			b, err := Open(kind, "", ps)
			if err != nil {
				t.Fatalf("Open(%s): %v", kind, err)
			}
			for i := int64(0); i < 8; i++ {
				if err := b.WritePage(substrate.PageKey{Object: 1, Offset: i * ps}, nil); err != nil {
					t.Fatalf("%s write: %v", kind, err)
				}
			}
			if err := b.Close(); err != nil {
				t.Fatalf("Close(%s): %v", kind, err)
			}
		}
	}
	if got := countFDs(t); got > base {
		t.Fatalf("descriptor count grew from %d to %d across open/close cycles", base, got)
	}
}

// TestCloseRemovesTempFiles: every temp-backed kind must remove its
// backing files on Close, including the N shard files of a sharded store.
func TestCloseRemovesTempFiles(t *testing.T) {
	const ps = 256
	dir := t.TempDir()
	for _, kind := range []string{"file", "tiered", "sharded", "mmap"} {
		b, err := Open(kind, "", ps)
		if err != nil {
			t.Fatalf("Open(%s): %v", kind, err)
		}
		if err := b.WritePage(substrate.PageKey{Object: 1, Offset: 0}, []byte{1, 2, 3}); err != nil {
			t.Fatalf("%s write: %v", kind, err)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("Close(%s): %v", kind, err)
		}
	}
	// Temp stores clean up after themselves: a mapped temp store in a
	// private dir leaves nothing behind.
	mm, err := filestore.OpenTempMapped(dir, ps)
	if err != nil {
		t.Fatalf("filestore.OpenTempMapped: %v", err)
	}
	path := mm.Path()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("backing file missing while open: %v", err)
	}
	if err := mm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("temp mmap file %s survived Close (stat err %v)", path, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d stray files left in temp dir after Close", len(ents))
	}
}

// TestMmapCloseUnmaps: Close must drop the mapping (a later Close-after-
// Close or read would otherwise touch unmapped memory through a stale
// slice).
func TestMmapCloseUnmaps(t *testing.T) {
	s, err := filestore.OpenTempMapped(t.TempDir(), 256)
	if err != nil {
		t.Fatalf("filestore.OpenTempMapped: %v", err)
	}
	if !s.Mapped() {
		s.Close()
		t.Skip("mmap unavailable here: the store opened on pread/pwrite")
	}
	if err := s.WritePage(substrate.PageKey{Object: 1, Offset: 0}, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s.Mapped() {
		t.Fatal("mapping still referenced after Close")
	}
}

// TestShardedCloseClosesChildren: closing the composite closes every
// child, even when one is interposed mid-list.
func TestShardedCloseClosesChildren(t *testing.T) {
	const ps = 256
	children := make([]substrate.Store, 3)
	files := make([]*filestore.Store, 3)
	for i := range children {
		s, err := filestore.OpenTemp(t.TempDir(), ps)
		if err != nil {
			t.Fatalf("filestore.OpenTemp: %v", err)
		}
		children[i], files[i] = s, s
	}
	sh := NewSharded(children...)
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, f := range files {
		if _, err := os.Stat(f.Path()); !os.IsNotExist(err) {
			t.Fatalf("shard %d temp file survived composite Close (stat err %v)", i, err)
		}
	}
}

// TestStoreNoGoroutineLeak: no backend spawns goroutines — stores are
// passive actors driven by the loop. Style follows machipc's leak tests.
func TestStoreNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	const ps = 256
	for _, kind := range []string{"file", "mem", "tiered", "sharded", "mmap"} {
		b, err := Open(kind, "", ps)
		if err != nil {
			t.Fatalf("Open(%s): %v", kind, err)
		}
		for i := int64(0); i < 4; i++ {
			if err := b.WritePage(substrate.PageKey{Object: 2, Offset: i * ps}, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := b.ReadPage(substrate.PageKey{Object: 2, Offset: i * ps}); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after store open/close cycles",
		before, runtime.NumGoroutine())
}
