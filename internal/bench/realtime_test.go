package bench

import "testing"

// TestRealtimeStoreIOMatchesVM: on every backend where one device serves
// each transfer, the store's own counters agree with the VM — one store
// read per page-in, one store write per page-out. The memory store counts
// like the file stores do. (A tiered store counts a transfer once per
// tier it touches, so it is left out.)
func TestRealtimeStoreIOMatchesVM(t *testing.T) {
	for _, kind := range []string{"file", "mem", "sharded", "mmap"} {
		t.Run(kind, func(t *testing.T) {
			res, err := RunRealtime(RealtimeConfig{
				Clients: 4, PagesPerClient: 16, Rounds: 2, StoreKind: kind, Dir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.VM.PageIns == 0 || res.VM.PageOuts == 0 {
				t.Fatalf("run paged nothing: %d page-ins, %d page-outs", res.VM.PageIns, res.VM.PageOuts)
			}
			if res.StoreReads != int64(res.VM.PageIns) || res.StoreWrites != int64(res.VM.PageOuts) {
				t.Fatalf("%s store counted %d reads, %d writes; VM counted %d page-ins, %d page-outs",
					res.StoreLabel, res.StoreReads, res.StoreWrites, res.VM.PageIns, res.VM.PageOuts)
			}
		})
	}
}
