package store

import (
	"bytes"
	"math/rand"
	"testing"

	"hipec/internal/disk/filestore"
	"hipec/internal/substrate"
)

// The differential harness pins every composite backend byte-equivalent
// to the MemStore oracle under a shared op stream. Ops are decoded from a
// byte script so the fuzzer can drive the same machine.
//
// Op encoding (3 bytes per op, trailing partial op ignored):
//
//	b0 % 5  — op: 0 full write, 1 partial write, 2 read, 3 contains, 4 delete
//	b1 % 3  — object ID
//	b2 % 16 — page index
//
// Write payloads derive deterministically from (op index, key), so the
// oracle and subject always see identical bytes.
const diffPS = 128

func diffKey(b1, b2 byte) substrate.PageKey {
	return substrate.PageKey{Object: uint64(b1 % 3), Offset: int64(b2%16) * diffPS}
}

func diffPayload(i int, k substrate.PageKey, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i) ^ byte(k.Object*131) ^ byte(k.Offset/diffPS) ^ byte(j*29)
	}
	return p
}

// normPage maps the two conforming representations of a page — nil and a
// zero-filled buffer — onto one canonical value.
func normPage(data []byte) []byte {
	if len(data) == 0 {
		return make([]byte, diffPS)
	}
	return append([]byte(nil), data...)
}

// runScript drives subject and oracle through the script, failing on the
// first observable divergence.
func runScript(t *testing.T, subject substrate.Store, script []byte) {
	t.Helper()
	oracle := substrate.NewMemStore(diffPS, true)
	for i := 0; i+3 <= len(script); i += 3 {
		op, k := script[i]%5, diffKey(script[i+1], script[i+2])
		switch op {
		case 0, 1:
			n := diffPS
			if op == 1 {
				n = 1 + int(script[i+1])%diffPS // partial, 1..diffPS bytes
			}
			payload := diffPayload(i, k, n)
			serr := subject.WritePage(k, payload)
			oerr := oracle.WritePage(k, payload)
			if (serr == nil) != (oerr == nil) {
				t.Fatalf("op %d write %v: subject err %v, oracle err %v", i, k, serr, oerr)
			}
		case 2:
			sdata, sok, serr := subject.ReadPage(k)
			if serr != nil {
				t.Fatalf("op %d read %v: subject error %v", i, k, serr)
			}
			odata, ook, _ := oracle.ReadPage(k)
			if sok != ook {
				t.Fatalf("op %d read %v: subject ok %v, oracle ok %v", i, k, sok, ook)
			}
			if sok && !bytes.Equal(normPage(sdata), normPage(odata)) {
				t.Fatalf("op %d read %v: subject and oracle disagree on bytes", i, k)
			}
		case 3:
			if s, o := subject.Contains(k), oracle.Contains(k); s != o {
				t.Fatalf("op %d contains %v: subject %v, oracle %v", i, k, s, o)
			}
		case 4:
			if s, o := subject.DeletePage(k), oracle.DeletePage(k); s != o {
				t.Fatalf("op %d delete %v: subject %v, oracle %v", i, k, s, o)
			}
		}
		if s, o := subject.Len(), oracle.Len(); s != o {
			t.Fatalf("after op %d: subject Len %d, oracle Len %d", i, s, o)
		}
	}
	// Closing sweep: every key the oracle holds must read identically.
	for obj := uint64(0); obj < 3; obj++ {
		for pg := int64(0); pg < 16; pg++ {
			k := substrate.PageKey{Object: obj, Offset: pg * diffPS}
			odata, ook, _ := oracle.ReadPage(k)
			ocopy := normPage(odata)
			sdata, sok, serr := subject.ReadPage(k)
			if serr != nil {
				t.Fatalf("sweep %v: subject error %v", k, serr)
			}
			if sok != ook {
				t.Fatalf("sweep %v: subject ok %v, oracle ok %v", k, sok, ook)
			}
			if sok && !bytes.Equal(normPage(sdata), ocopy) {
				t.Fatalf("sweep %v: final bytes diverge", k)
			}
		}
	}
}

// diffSubjects builds one fresh instance of every composite backend.
func diffSubjects(t *testing.T) map[string]substrate.Store {
	t.Helper()
	newFile := func() substrate.Store {
		s, err := filestore.OpenTemp(t.TempDir(), diffPS)
		if err != nil {
			t.Fatalf("filestore.OpenTemp: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	mm, err := filestore.OpenTempMapped(t.TempDir(), diffPS)
	if err != nil {
		t.Fatalf("filestore.OpenTempMapped: %v", err)
	}
	t.Cleanup(func() { mm.Close() })
	tieredWT := NewTiered(substrate.NewMemStore(diffPS, true), newFile(), WriteThrough, 5)
	tieredWB := NewTiered(substrate.NewMemStore(diffPS, true),
		substrate.NewMemStore(diffPS, true), WriteBack, 3)
	t.Cleanup(func() { tieredWT.Close() })
	return map[string]substrate.Store{
		"File":             newFile(),
		"TieredWT/File":    tieredWT,
		"TieredWB/Mem":     tieredWB,
		"Sharded/Mem":      NewSharded(substrate.NewMemStore(diffPS, true), substrate.NewMemStore(diffPS, true), substrate.NewMemStore(diffPS, true)),
		"Mmap":             mm,
		"Tiered/ShardFile": NewTiered(substrate.NewMemStore(diffPS, true), NewSharded(newFile(), newFile()), WriteThrough, 4),
	}
}

// TestStoreVsMemOracle drives a long seeded op stream through every
// composite backend and the MemStore oracle in lockstep.
func TestStoreVsMemOracle(t *testing.T) {
	for name, subject := range diffSubjects(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x42D))
			script := make([]byte, 3*4000)
			rng.Read(script)
			runScript(t, subject, script)
		})
	}
}

// FuzzStoreOps lets the fuzzer hunt for op sequences where a composite
// diverges from the oracle. Fresh subjects per input; small page size and
// tier caps keep eviction and promotion hot.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 0})                      // write then read
	f.Add([]byte{0, 1, 2, 4, 1, 2, 3, 1, 2})             // write, delete, contains
	f.Add([]byte{1, 0, 5, 1, 0, 5, 2, 0, 5})             // partial overwrites
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 0, 3, 2}) // fill past tier cap
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*512 {
			script = script[:3*512]
		}
		tiered := NewTiered(substrate.NewMemStore(diffPS, true),
			substrate.NewMemStore(diffPS, true), WriteThrough, 3)
		runScript(t, tiered, script)
		tieredWB := NewTiered(substrate.NewMemStore(diffPS, true),
			substrate.NewMemStore(diffPS, true), WriteBack, 2)
		runScript(t, tieredWB, script)
		sharded := NewSharded(substrate.NewMemStore(diffPS, true),
			substrate.NewMemStore(diffPS, true), substrate.NewMemStore(diffPS, true))
		runScript(t, sharded, script)
		mm, err := filestore.OpenTempMapped(t.TempDir(), diffPS)
		if err != nil {
			t.Fatalf("filestore.OpenTempMapped: %v", err)
		}
		defer mm.Close()
		runScript(t, mm, script)
	})
}
