// Realcache: the HiPEC engine as a live cache. The same kernel that
// reproduces the paper's 1994 numbers boots here on the realtime substrate:
// wall-clock time, frames carrying real 4 KB payloads, and a file-backed
// page store doing genuine I/O. N client goroutines hammer one cache
// concurrently through the serialized command loop — the actor mailbox is
// the only synchronization; inside, the kernel is the same single-writer
// engine the simulation runs.
//
// The workload itself lives in internal/demo and is written against the
// transport-agnostic hipec.Client seam: this binary hands it the in-process
// client, examples/netcache hands it the wire client, and the two run the
// same stamp/verify rounds. Each client owns one region under the paper's
// Figure 4 policy (FIFO with a second chance) sized to overflow its frame
// grant, so a working set bigger than memory keeps pages round-tripping
// through the backing file.
//
// Run with: go run ./examples/realcache
// Race-check with: go run -race ./examples/realcache
package main

import (
	"flag"
	"fmt"
	"log"

	"hipec"
	"hipec/internal/demo"
)

const pageSize = 4096

func main() {
	cfg := demo.Flags(flag.CommandLine, demo.Config{Clients: 8, Pages: 96, Rounds: 3, Pool: 16})
	storeKind := flag.String("store", "file", "store backend: file, mem, tiered, sharded, mmap")
	storePath := flag.String("store-path", "", "backing store file or stem (default: fresh temp files, removed on exit)")
	flag.Parse()

	// The backing store does real I/O; Close removes temp stores.
	store, err := hipec.OpenStore(*storeKind, *storePath, pageSize)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	fmt.Printf("backing store: %s\n", store.Label())

	// Half the fleet's total working set fits in memory: the rest lives in
	// the file and pages in and out on demand.
	k := hipec.New(hipec.Config{
		Frames:        cfg.KernelFrames(),
		PageSize:      pageSize,
		BurstFraction: 0.5,
		Substrate: hipec.SubstrateConfig{
			Kind:  hipec.SubstrateReal,
			Store: store,
		},
	})
	client := hipec.NewClient(k)
	defer client.Close()

	// Every demo client shares the one in-process Client; the mailbox
	// serializes them.
	res, err := demo.Run(*cfg, func(int) (hipec.Client, func(), error) {
		return client, func() {}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report(*cfg, "in-process"))
	reads, writes := store.StoreIO()
	fmt.Printf("  store I/O: %d reads, %d writes\n", reads, writes)
}
