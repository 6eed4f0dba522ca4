package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hipec/internal/disk/filestore"
	"hipec/internal/substrate"
	"hipec/internal/vm"
)

// realKernel builds a kernel on the realtime substrate (wall clock, payload
// arena, no cost model).
func realKernel(frames int) *Kernel {
	return New(Config{
		Frames:        frames,
		PageSize:      4096,
		BurstFraction: 0.5,
		Substrate:     substrate.Config{Kind: substrate.KindReal},
	})
}

// TestLoopSerializesConcurrentCallers is the realtime concurrency contract:
// >= 8 goroutines hammer one kernel through the loop, each faulting and
// re-touching its own HiPEC region. Run under -race this proves the mailbox
// is the only synchronization the engine needs.
func TestLoopSerializesConcurrentCallers(t *testing.T) {
	k := realKernel(512)
	l := NewLoop(k)
	defer l.Close()

	const clients = 8
	const pagesPer = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sp *vm.AddressSpace
			var start int64
			if err := l.Call(func(k *Kernel) error {
				sp = k.NewSpace()
				e, _, err := k.Allocate(sp, pagesPer*4096, WithPolicy(simpleSpec(4)))
				if err != nil {
					return err
				}
				start = e.Start
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 4; round++ {
				for i := int64(0); i < pagesPer; i++ {
					addr := start + i*4096
					if err := l.Call(func(k *Kernel) error {
						_, err := sp.Touch(addr)
						return err
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if err := l.Call(func(k *Kernel) error {
		if got := int(k.Stats().ContainersCreated); got != clients {
			t.Errorf("containers = %d, want %d", got, clients)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLoopCloseDrainsAndRejects: commands enqueued before Close run; calls
// after Close report ErrLoopClosed; Close is idempotent.
func TestLoopCloseDrainsAndRejects(t *testing.T) {
	k := realKernel(64)
	l := NewLoop(k)

	ran := false
	if !l.Async(func(*Kernel) { ran = true }) {
		t.Fatal("Async rejected before Close")
	}
	l.Close()
	l.Close()
	if !ran {
		t.Fatal("command enqueued before Close was dropped")
	}
	if err := l.Call(func(*Kernel) error { return nil }); !errors.Is(err, ErrLoopClosed) {
		t.Fatalf("Call after Close = %v, want ErrLoopClosed", err)
	}
	if l.Async(func(*Kernel) {}) {
		t.Fatal("Async accepted after Close")
	}
}

// TestLoopOnSimKernel: the loop is substrate-agnostic — a simulated kernel
// can be driven through it too.
func TestLoopOnSimKernel(t *testing.T) {
	k := testKernel(64)
	l := NewLoop(k)
	defer l.Close()
	if err := l.Call(func(k *Kernel) error {
		sp := k.NewSpace()
		_, _, err := k.Allocate(sp, 4*4096, WithPolicy(simpleSpec(2)))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRealtimeKernelPayloads: on the realtime substrate frames carry real
// page payloads from the arena.
func TestRealtimeKernelPayloads(t *testing.T) {
	k := realKernel(64)
	if !k.VM.Frames.HasArena() {
		t.Fatal("realtime kernel frames have no payload arena")
	}
	if k.Clock.IsSim() {
		t.Fatal("realtime kernel got a sim clock")
	}
}

// TestRealtimeKernelNeverSleeps pins the sim-only rule for time: a realtime
// kernel driven through the loop over a file store charges no cost, arms no
// timer and builds no disk model, so its clock never sleeps. HiPEC regions
// 4x their FIFO pools and a default region 4x the daemon's frames take a
// write round and then a verify round, so dirty flush-exchange evictions,
// daemon page-outs and page-ins all run; every payload must round-trip and
// every frame must be accounted for once the loop has closed. It also pins
// that the timer-driven checker watchdog is refused on this substrate.
func TestRealtimeKernelNeverSleeps(t *testing.T) {
	var refused string
	func() {
		defer func() { refused = fmt.Sprint(recover()) }()
		New(Config{Frames: 64, StartChecker: true, Substrate: substrate.Config{Kind: substrate.KindReal}})
	}()
	if !strings.Contains(refused, "sim-only") {
		t.Fatalf("StartChecker on the realtime substrate: panic %q, want the sim-only refusal", refused)
	}

	st, err := filestore.OpenTemp(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const frames, pool = 64, 4
	k := New(Config{
		Frames:        frames,
		PageSize:      4096,
		BurstFraction: 0.5,
		Substrate:     substrate.Config{Kind: substrate.KindReal, Store: st},
	})
	if k.VM.Disk != nil {
		t.Fatal("realtime kernel built a disk model")
	}
	l := NewLoop(k)
	defer l.Close()

	type region struct {
		id    RegionID
		pages int
	}
	var regions []region
	for _, r := range []struct {
		pages int
		opts  []RegionOption
	}{
		{4 * pool, []RegionOption{WithPolicySpec(simpleSpec(pool))}},
		{4 * pool, []RegionOption{WithPolicySpec(simpleSpec(pool))}},
		{4 * frames, nil}, // default region: the pageout daemon evicts
	} {
		id, err := l.Open(r.pages, r.opts...)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, region{id, r.pages})
	}
	stamp := func(r RegionID, page int) []byte {
		return []byte(fmt.Sprintf("region %d page %d", r, page))
	}
	for _, r := range regions {
		for pg := 0; pg < r.pages; pg++ {
			if err := l.WritePage(r.id, pg, stamp(r.id, pg)); err != nil {
				t.Fatalf("write region %d page %d: %v", r.id, pg, err)
			}
		}
	}
	buf := make([]byte, 64)
	for _, r := range regions {
		for pg := 0; pg < r.pages; pg++ {
			want := stamp(r.id, pg)
			n, err := l.ReadPage(r.id, pg, buf)
			if err != nil {
				t.Fatalf("read region %d page %d: %v", r.id, pg, err)
			}
			if !bytes.Equal(buf[:len(want)], want) || n < len(want) {
				t.Fatalf("region %d page %d: read %q, want %q", r.id, pg, buf[:len(want)], want)
			}
		}
	}
	l.Close()

	if fs, ds := k.FM.Stats(), k.Daemon.Stats(); fs.FlushExchanges == 0 || ds.Flushes == 0 {
		t.Fatalf("workload exercised no dirty evictions: flush exchanges %d, daemon flushes %d",
			fs.FlushExchanges, ds.Flushes)
	}
	if vs := k.VM.Stats(); vs.PageIns == 0 || vs.PageOuts == 0 {
		t.Fatalf("workload moved no pages: %+v", vs)
	}
	if n := k.Clock.Backend().(*substrate.RealClock).Sleeps(); n != 0 {
		t.Fatalf("realtime kernel slept %d times", n)
	}
	kernelConservation(t, k)
}
