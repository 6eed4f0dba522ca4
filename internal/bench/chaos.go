package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"hipec/internal/core"
	"hipec/internal/disk"
	"hipec/internal/emm"
	"hipec/internal/faultinj"
	"hipec/internal/hiperr"
	"hipec/internal/hpl"
	"hipec/internal/kevent"
	"hipec/internal/machipc"
	"hipec/internal/mem"
	"hipec/internal/vm"
)

// ChaosConfig sizes the chaos soak: a seeded, deterministic run of the
// spine-smoke workload mix with the fault-injection plane enabled on every
// injection point, followed by system-wide invariant checks.
type ChaosConfig struct {
	Seed    uint64 // fault-injection PRNG seed (must be nonzero)
	Frames  int    // machine size
	Touches int    // references per workload phase
}

// DefaultChaos returns the full-size chaos soak for seed.
func DefaultChaos(seed uint64) ChaosConfig {
	return ChaosConfig{Seed: seed, Frames: 512, Touches: 12000}
}

// QuickChaos returns the -quick scaling.
func QuickChaos(seed uint64) ChaosConfig { return ChaosConfig{Seed: seed, Frames: 512, Touches: 3000} }

// ChaosReport summarizes what the chaos plane injected and how the kernel
// degraded, every count derived from the event-spine registry.
type ChaosReport struct {
	Seed         uint64
	Faults       int64 // page faults taken across all spaces
	DiskErrors   int64 // injected synchronous read failures
	DiskSlows    int64 // injected latency spikes (reads and writes)
	PagerLosses  int64 // injected remote-pager network losses
	GrantDenials int64 // injected frame-manager grant denials
	Retries      int64 // fault-path page-in retries
	Abandons     int64 // faults abandoned after exhausting their budget
	Failovers    int64 // pager failover transitions
	Revocations  int64 // containers degraded to the default policy
	Tolerated    int64 // workload-visible errors absorbed by the harness
}

func (r *ChaosReport) String() string {
	return fmt.Sprintf("chaos seed=%d: faults=%d injected(disk=%d slow=%d pager=%d deny=%d) "+
		"recovered(retries=%d abandons=%d failovers=%d revocations=%d) tolerated=%d",
		r.Seed, r.Faults, r.DiskErrors, r.DiskSlows, r.PagerLosses, r.GrantDenials,
		r.Retries, r.Abandons, r.Failovers, r.Revocations, r.Tolerated)
}

// chaosPolicy is the soak's HiPEC policy: MRU replacement that first asks
// the global frame manager for more frames and only evicts when the grant is
// denied — so the run exercises both the Request/grant path and the injected
// denial path, with MRU eviction as the cope-with-denial fallback.
const chaosPolicy = `
minframe = 64
access_order = 1

event PageFault() {
    if (empty(_free_queue)) {
        if (!request(8)) {
            mru(_active_queue)
        }
    }
    page = dequeue_head(_free_queue)
    return page
}
event ReclaimFrame() {
    if (empty(_free_queue)) {
        fifo(_active_queue)
    }
    if (!empty(_free_queue)) {
        release(1)
    }
    return
}
`

// chaosFaults is the injection mix the soak runs under: frequent-enough disk
// errors that a retry budget of 2 is exhausted within the run (revocation
// exercised), pager loss high enough to cross the failover threshold, and
// occasional grant denials and latency spikes.
func chaosFaults(seed uint64) faultinj.Config {
	return faultinj.Config{
		Seed:  seed,
		Disk:  faultinj.Rule{FailRate: 0.15, SlowRate: 0.05, SlowBy: 2 * time.Millisecond},
		Pager: faultinj.Rule{FailRate: 0.2},
		Grant: faultinj.Rule{FailRate: 0.1},
	}
}

// RunChaos drives the chaos soak: three deterministic workloads — a plain
// daemon-managed thrasher, a HiPEC MRU region with a tight retry budget, and
// a region backed by a lossy remote pager behind a failover mirror — all
// under the injection mix of chaosFaults. Workload-visible transient errors
// are tolerated (counted, not fatal); afterwards the run must satisfy the
// degradation invariants:
//
//   - no stuck activity: the event queue, disk queue and launder pipeline
//     drain completely;
//   - no lost page: every offset the workload wrote is resident, in the
//     kernel's backing store, or in the failover mirror;
//   - frame conservation: every physical frame is accounted for exactly once;
//   - revoked containers hold no frames;
//   - per-space registry counters sum to the system-wide counters.
//
// Two runs with the same config produce byte-identical event streams.
func RunChaos(cfg ChaosConfig, sinks ...kevent.Sink) (*ChaosReport, error) {
	if cfg.Seed == 0 {
		return nil, errors.New("bench: chaos soak needs a nonzero seed")
	}
	k := core.New(core.Config{
		Frames:       cfg.Frames,
		StartChecker: true,
		Faults:       chaosFaults(cfg.Seed),
		Sinks:        sinks,
	})
	ps := int64(k.VM.PageSize())
	rep := &ChaosReport{Seed: cfg.Seed}
	tolerate := func(err error) error {
		if err == nil {
			return nil
		}
		if errors.Is(err, hiperr.ErrDiskIO) || errors.Is(err, hiperr.ErrPagerLost) ||
			errors.Is(err, hiperr.ErrPolicyFault) || errors.Is(err, hiperr.ErrRevoked) ||
			errors.Is(err, vm.ErrNoMemory) {
			rep.Tolerated++
			return nil
		}
		return err
	}
	written := make(map[disk.StoreKey]bool)
	noteWrite := func(e *vm.MapEntry, addr int64) {
		off := e.ObjOffset + (addr - e.Start)
		written[disk.StoreKey{Object: e.Object.ID, Offset: off}] = true
	}

	// Workload 1: plain task under the default daemon, thrashing a region
	// twice machine size so the daemon balances and flushes under injection.
	plain := k.NewSpace()
	plainPages := int64(2 * cfg.Frames)
	pe, err := plain.Allocate(plainPages * ps)
	if err != nil {
		return nil, err
	}

	// Workload 2: a HiPEC request-then-MRU region with a deliberately tight
	// retry budget, so injected disk errors exhaust recovery and force a
	// revocation.
	hip := k.NewSpace()
	spec, err := hpl.Translate("chaos-mru", chaosPolicy)
	if err != nil {
		return nil, err
	}
	// The region is larger than the pool the policy can ever grow to (the
	// partition_burst watermark caps it at half the machine), so eviction
	// and page-in traffic — the disk-error exposure — never stops.
	hipPages := int64(cfg.Frames)
	he, hc, err := k.Allocate(hip, hipPages*ps,
		core.WithPolicy(spec), core.WithRetryBudget(2))
	if err != nil {
		return nil, err
	}

	// Workload 3: a region backed by a lossy remote pager mirrored by a
	// durable store pager — repeated network loss triggers pager failover.
	rm := k.NewSpace()
	ipc := machipc.New(k.Clock, machipc.Costs{})
	remote := emm.NewRemotePager("chaosnet", k.Clock, ipc, time.Millisecond, 100*time.Nanosecond, int(ps))
	remote.Inject = k.Inject
	remote.Events = k.Events()
	store := emm.NewStorePager("chaosmirror", k.Clock, ipc, disk.DefaultParams(), int(ps))
	failover := emm.NewFailoverPager(remote, store, k.Events())
	re, _, err := k.Allocate(rm, 128*ps, core.WithPager(failover))
	if err != nil {
		return nil, err
	}

	// Interleave the three workloads so injected faults land across every
	// subsystem in one deterministic stream.
	for i := 0; i < cfg.Touches; i++ {
		addr := pe.Start + (int64(i*7)%plainPages)*ps
		if i%3 == 0 {
			if _, werr := plain.Write(addr); werr == nil {
				noteWrite(pe, addr)
			} else if err := tolerate(werr); err != nil {
				return nil, err
			}
		} else if _, terr := plain.Touch(addr); tolerate(terr) != nil {
			return nil, terr
		}

		if i%2 == 0 {
			addr := he.Start + (int64(i/2)%hipPages)*ps
			if i%8 == 0 {
				if _, werr := hip.Write(addr); werr == nil {
					noteWrite(he, addr)
				} else if err := tolerate(werr); err != nil {
					return nil, err
				}
			} else if _, terr := hip.Touch(addr); tolerate(terr) != nil {
				return nil, terr
			}
		}

		if i%4 == 0 {
			addr := re.Start + (int64(i/4*3)%128)*ps
			if i%8 == 0 {
				if _, werr := rm.Write(addr); werr == nil {
					noteWrite(re, addr)
				} else if err := tolerate(werr); err != nil {
					return nil, err
				}
			} else if _, terr := rm.Touch(addr); tolerate(terr) != nil {
				return nil, terr
			}
		}
	}

	// Drain: stop the watchdog and run the event queue dry so outstanding
	// disk completions, launder callbacks and the final checker wakeup fire.
	k.Checker.Stop()
	if k.Clock.Drain(1<<20) >= 1<<20 {
		return nil, errors.New("bench: chaos event queue did not drain")
	}
	if n := k.Clock.Pending(); n != 0 {
		return nil, fmt.Errorf("bench: %d events still pending after drain (stuck fault?)", n)
	}
	if n := k.VM.Disk.Inflight(); n != 0 {
		return nil, fmt.Errorf("bench: %d disk writes still in flight after drain", n)
	}
	if n := k.FM.Stats().LaunderPending; n != 0 {
		return nil, fmt.Errorf("bench: %d laundering frames still pending after drain", n)
	}

	if err := chaosInvariants(k, written, failover); err != nil {
		return nil, err
	}

	reg := k.Registry()
	g := reg.Global()
	rep.Faults = g.Counts[kevent.EvFault]
	rep.DiskErrors = g.Counts[kevent.EvInjectDiskError]
	rep.DiskSlows = g.Counts[kevent.EvInjectDiskSlow]
	rep.PagerLosses = g.Counts[kevent.EvInjectPagerLoss]
	rep.GrantDenials = g.Counts[kevent.EvInjectGrantDeny]
	rep.Retries = g.Counts[kevent.EvFaultRetry]
	rep.Abandons = g.Counts[kevent.EvFaultAbandon]
	rep.Failovers = g.Counts[kevent.EvPagerFailover]
	rep.Revocations = g.Counts[kevent.EvContainerRevoked]
	_ = hc // lifecycle asserted via the revocation counter and invariants
	return rep, nil
}

// chaosInvariants checks the degradation safety properties on a drained
// kernel: durability of every written page, physical frame conservation,
// empty revoked containers, and registry scope consistency.
func chaosInvariants(k *core.Kernel, written map[disk.StoreKey]bool, failover *emm.FailoverPager) error {
	// No lost page: everything the workload wrote survives somewhere.
	for key := range written {
		obj := k.VM.Object(key.Object)
		if obj != nil && obj.Resident(key.Offset) != nil {
			continue
		}
		if k.VM.Store.Contains(key) {
			continue
		}
		if failover.Contains(key.Object, key.Offset) {
			continue
		}
		return fmt.Errorf("bench: written page (obj %d, off %#x) lost: not resident, not in store, not in mirror",
			key.Object, key.Offset)
	}

	// Frame conservation: every frame is free, on exactly one queue, or
	// resident off-queue (wired / mid-launder).
	queues := []*mem.Queue{k.Daemon.Active, k.Daemon.Inactive}
	seen := map[*mem.Queue]bool{k.Daemon.Active: true, k.Daemon.Inactive: true}
	loose := map[*mem.Page]bool{}
	for _, c := range k.FM.Containers() {
		// The operand scan picks up the built-in queues too (the well-known
		// _free_queue/_active_queue/_inactive_queue slots alias them), so
		// dedupe by identity.
		queues = append(queues, c.Free, c.Active, c.Inactive)
		seen[c.Free], seen[c.Active], seen[c.Inactive] = true, true, true
		for i := 0; i < 256; i++ {
			o := c.Operand(uint8(i))
			if o.Kind == core.KindQueue && o.Queue != nil && !seen[o.Queue] {
				seen[o.Queue] = true
				queues = append(queues, o.Queue)
			}
			if o.Kind == core.KindPage && o.Page != nil && o.Page.Queue() == nil {
				loose[o.Page] = true
			}
		}
	}
	for i := 0; i < k.VM.Frames.Frames(); i++ {
		p := k.VM.Frames.Page(i)
		if p.Queue() != nil || loose[p] || p.Object == 0 {
			continue
		}
		if obj := k.VM.Object(p.Object); obj != nil && obj.Resident(p.Offset) == p {
			loose[p] = true
		}
	}
	if err := k.VM.Frames.Conservation(queues, loose); err != nil {
		return fmt.Errorf("bench: chaos conservation: %w", err)
	}

	// Revoked (and terminated/destroyed) containers hold no frames.
	for _, c := range k.Containers() {
		if c.State() != core.StateActive && c.Allocated() != 0 {
			return fmt.Errorf("bench: %v container %d still holds %d frames", c.State(), c.ID, c.Allocated())
		}
	}

	// Registry consistency: per-space counters sum to the global counters
	// for every space-scoped event type.
	reg := k.Registry()
	for _, t := range []kevent.Type{kevent.EvHit, kevent.EvFault, kevent.EvPageIn, kevent.EvZeroFill, kevent.EvBadAddress} {
		var sum int64
		for id := 1; id < reg.Spaces(); id++ {
			sum += reg.Space(id).Counts[t]
		}
		if g := reg.Global().Counts[t]; sum != g {
			return fmt.Errorf("bench: registry scope mismatch for %v: spaces sum %d, global %d", t, sum, g)
		}
	}
	return nil
}

// CaptureChaosLog runs the chaos soak with a streaming event-log sink and
// serializes every event to w (the replaydiff determinism check). It reports
// the number of events captured.
func CaptureChaosLog(w io.Writer, seed uint64, quick bool) (int64, error) {
	cfg := DefaultChaos(seed)
	if quick {
		cfg = QuickChaos(seed)
	}
	lw := kevent.NewLogWriter(w)
	if _, err := RunChaos(cfg, lw); err != nil {
		return 0, err
	}
	if err := lw.Flush(); err != nil {
		return 0, err
	}
	return lw.Events(), nil
}
