package bench

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hipec/internal/core"
	"hipec/internal/policies"
	"hipec/internal/store"
	"hipec/internal/substrate"
	"hipec/internal/vm"
)

// RealtimeConfig sizes the realtime-substrate smoke: N client goroutines
// hammer one real-store-backed HiPEC cache through the serialized command
// loop.
type RealtimeConfig struct {
	Clients        int    // concurrent client goroutines (default 8)
	PagesPerClient int    // region size per client in pages (default 64)
	Rounds         int    // full passes over each region (default 4)
	StoreKind      string // backend kind per store.Open ("" = file)
	Dir            string // backing-file directory ("" = OS temp dir)
}

// DefaultRealtime returns the standard smoke shape.
func DefaultRealtime() RealtimeConfig {
	return RealtimeConfig{Clients: 8, PagesPerClient: 64, Rounds: 4}
}

// RealtimeResult summarizes one realtime run. Unlike every simulated
// result in this package, WallTime is genuinely elapsed real time and the
// store counters are real file I/O.
type RealtimeResult struct {
	Clients     int
	Pages       int
	Rounds      int
	StoreLabel  string
	WallTime    time.Duration
	VM          vm.Stats
	StoreReads  int64
	StoreWrites int64
	StorePages  int
	Verified    int64 // pages whose payload round-tripped through the file intact
}

// Format renders the result.
func (r RealtimeResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "realtime substrate: %d clients x %d pages x %d rounds, %s store\n",
		r.Clients, r.Pages, r.Rounds, r.StoreLabel)
	fmt.Fprintf(&b, "  wall time      %v\n", r.WallTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  accesses       %d (%d hits, %d faults)\n", r.VM.Accesses, r.VM.Hits, r.VM.Faults)
	fmt.Fprintf(&b, "  page-ins       %d   page-outs %d   zero-fills %d\n", r.VM.PageIns, r.VM.PageOuts, r.VM.ZeroFills)
	fmt.Fprintf(&b, "  store          %d page reads, %d page writes, %d pages resident in file\n",
		r.StoreReads, r.StoreWrites, r.StorePages)
	fmt.Fprintf(&b, "  verified       %d payload round trips through the backing file\n", r.Verified)
	return b.String()
}

// RunRealtime builds a kernel on the realtime substrate — wall clock, frame
// payload arena, file-backed store — and drives it with cfg.Clients
// concurrent goroutines through the actor loop. Each client owns one
// HiPEC FIFO-policy region sized to overflow its frame pool, so every round
// after the first forces real evictions (file writes) and re-faults (file
// reads). Clients stamp each page with a recognizable payload and verify it
// after the page round-trips through the backing file.
func RunRealtime(cfg RealtimeConfig) (RealtimeResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.PagesPerClient <= 0 {
		cfg.PagesPerClient = 64
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	const pageSize = 4096
	res := RealtimeResult{Clients: cfg.Clients, Pages: cfg.PagesPerClient, Rounds: cfg.Rounds}

	// cfg.Dir pins the backing file(s) to a directory; an empty path means
	// fresh temp files that Close removes.
	var path string
	if cfg.Dir != "" {
		path = filepath.Join(cfg.Dir, "hipec-realtime.pages")
	}
	st, err := store.Open(cfg.StoreKind, path, pageSize)
	if err != nil {
		return res, err
	}
	defer st.Close()
	res.StoreLabel = st.Label()

	// Half the frames a full fleet would want: the cache must evict.
	frames := cfg.Clients * cfg.PagesPerClient / 2
	k := core.New(core.Config{
		Frames:        frames,
		PageSize:      pageSize,
		BurstFraction: 0.5,
		Substrate:     substrate.Config{Kind: substrate.KindReal, Store: st},
	})
	l := core.NewLoop(k)
	defer l.Close()

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var verified int64
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var sp *vm.AddressSpace
			var start int64
			pool := cfg.PagesPerClient / 4
			if pool < 2 {
				pool = 2
			}
			if err := l.Call(func(k *core.Kernel) error {
				sp = k.NewSpace()
				e, _, err := k.Allocate(sp, int64(cfg.PagesPerClient)*pageSize, core.WithPolicy(policies.FIFO(pool)))
				if err != nil {
					return err
				}
				start = e.Start
				return nil
			}); err != nil {
				fail(err)
				return
			}
			stamp := byte(id + 1)
			for round := 0; round < cfg.Rounds; round++ {
				for i := 0; i < cfg.PagesPerClient; i++ {
					addr := start + int64(i)*pageSize
					i := i
					if err := l.Call(func(k *core.Kernel) error {
						p, err := sp.Write(addr)
						if err != nil {
							return err
						}
						if round == 0 {
							p.Data[0], p.Data[1] = stamp, byte(i)
						} else if p.Data[0] != stamp || p.Data[1] != byte(i) {
							return fmt.Errorf("client %d page %d: payload corrupt after store round trip: % x",
								id, i, p.Data[:2])
						} else {
							mu.Lock()
							verified++
							mu.Unlock()
						}
						return nil
					}); err != nil {
						fail(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	res.WallTime = time.Since(start)
	if firstErr != nil {
		return res, firstErr
	}

	err = l.Call(func(k *core.Kernel) error {
		res.VM = k.VM.Stats()
		return nil
	})
	res.StoreReads, res.StoreWrites = st.StoreIO()
	res.StorePages = st.Len()
	res.Verified = verified
	return res, err
}
