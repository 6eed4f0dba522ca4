// Package pageout implements the Mach 3.0 default page-replacement policy —
// FIFO with second chance over active/inactive/free queues (Draves,
// "Page Replacement and Reference Bit Emulation in Mach", USENIX Mach
// Symposium 1991) — as a vm.Policy.
//
// In the paper this daemon plays two roles: it is the fixed LRU-like policy
// that non-specific applications get, and it is the engine of the HiPEC
// global frame manager (§4.3.1), which allocates free frames to specific
// applications and reclaims them under pressure. Package core builds the
// frame manager on top of the Daemon's TakeFree/ReturnFrame interface.
package pageout

import (
	"time"

	"hipec/internal/kevent"
	"hipec/internal/mem"
	"hipec/internal/simtime"
	"hipec/internal/vm"
)

// Targets are the daemon's watermarks, in frames. They correspond to Mach's
// vm_page_free_target, vm_page_inactive_target and vm_page_free_reserved.
type Targets struct {
	Free     int // balance until this many frames are free
	Inactive int // keep this many pages on the inactive queue
	Reserved int // never let free count fall below this without balancing
}

// DefaultTargets derives Mach-like watermarks from the machine size.
func DefaultTargets(frames int) Targets {
	reserved := frames/100 + 4
	free := 2*reserved + 8
	inactive := frames / 3
	return Targets{Free: free, Inactive: inactive, Reserved: reserved}
}

// Stats is a snapshot of daemon activity, derived from the kernel event
// spine.
type Stats struct {
	Balances      int64 // balance passes
	Deactivations int64 // active -> inactive moves
	Reactivations int64 // inactive -> active second chances
	Reclaims      int64 // inactive pages freed
	Flushes       int64 // dirty pages written during reclaim
}

// Daemon is the default pageout policy. It is also the supplier of free
// frames for the HiPEC global frame manager.
type Daemon struct {
	sys      *vm.System
	events   *kevent.Emitter
	Active   *mem.Queue
	Inactive *mem.Queue
	Targets  Targets

	// BalanceCPUCost is charged to the clock per reclaimed frame,
	// modelling the daemon's CPU time (small next to fault service).
	// Sim-only: a daemon on the realtime substrate charges nothing.
	BalanceCPUCost time.Duration
}

// New creates a daemon for sys with the given targets and installs nothing;
// callers typically pass it to sys.SetDefaultPolicy. The daemon emits into
// sys's kernel event spine.
func New(sys *vm.System, t Targets) *Daemon {
	if t == (Targets{}) {
		t = DefaultTargets(sys.Frames.Frames())
	}
	return &Daemon{
		sys:      sys,
		events:   sys.Events,
		Active:   mem.NewQueue("global_active"),
		Inactive: mem.NewQueue("global_inactive"),
		Targets:  t,
	}
}

// Stats reports the daemon's activity counters, derived from the event
// spine.
func (d *Daemon) Stats() Stats {
	sc := d.events.Registry().Global()
	return Stats{
		Balances:      sc.Counts[kevent.EvDaemonBalance],
		Deactivations: sc.Counts[kevent.EvDaemonDeactivate],
		Reactivations: sc.Counts[kevent.EvDaemonReactivate],
		Reclaims:      sc.Counts[kevent.EvDaemonReclaim],
		Flushes:       sc.Counts[kevent.EvDaemonFlush],
	}
}

// Name implements vm.Policy.
func (d *Daemon) Name() string { return "mach-fifo-second-chance" }

// FreeCount reports the machine-wide free frame count (the frame table's
// free queue is Mach's vm_page_free_queue).
func (d *Daemon) FreeCount() int { return d.sys.Frames.FreeCount() }

// PageFor implements vm.Policy: produce one free frame for a fault,
// balancing the queues if the free pool is at or below reserve.
//
//hipec:hotpath
func (d *Daemon) PageFor(f *vm.Fault) (*mem.Page, error) {
	if d.FreeCount() <= d.Targets.Reserved {
		d.Balance()
	}
	p := d.sys.Frames.Alloc()
	if p == nil {
		d.Balance()
		p = d.sys.Frames.Alloc()
	}
	if p == nil {
		return nil, vm.ErrNoMemory
	}
	return p, nil
}

// Installed implements vm.Policy: newly resident pages join the active
// queue (wired pages stay off all queues).
func (d *Daemon) Installed(f *vm.Fault, p *mem.Page) {
	if p.Wired {
		return
	}
	d.Active.EnqueueTail(p)
}

// Release implements vm.Policy: the page is leaving residency for reasons
// outside the daemon's control (object destruction); drop it from our
// queues.
func (d *Daemon) Release(p *mem.Page) {
	if q := p.Queue(); q == d.Active || q == d.Inactive {
		q.Remove(p)
	}
}

// Balance runs the FIFO-with-second-chance pass: refill the inactive queue
// from the head of the active queue (clearing reference bits), then free
// inactive pages, giving referenced ones a second chance on the active
// queue and flushing dirty ones.
//
//hipec:hotpath
func (d *Daemon) Balance() {
	d.events.Emit(kevent.Event{Type: kevent.EvDaemonBalance})
	d.refillInactive()
	for d.FreeCount() < d.Targets.Free && !d.Inactive.Empty() {
		p := d.Inactive.DequeueHead()
		if p.Referenced {
			// Second chance.
			p.Referenced = false
			d.Active.EnqueueTail(p)
			d.events.Emit(kevent.Event{Type: kevent.EvDaemonReactivate, Arg: int64(p.Object), Aux: p.Offset})
			continue
		}
		if p.Modified {
			if err := d.sys.PageOut(p, nil); err != nil {
				// Write-back failed: the page holds the only copy, so it
				// cannot be reclaimed. Re-activate it and abandon the pass —
				// retrying the same dirty page in a loop would spin.
				d.Active.EnqueueTail(p)
				break
			}
			d.events.Emit(kevent.Event{Type: kevent.EvDaemonFlush, Arg: int64(p.Object), Aux: p.Offset})
		}
		d.sys.Detach(p)
		d.sys.Frames.Free(p)
		d.events.Emit(kevent.Event{Type: kevent.EvDaemonReclaim, Arg: int64(p.Object), Aux: p.Offset})
		if d.BalanceCPUCost > 0 && d.sys.Clock.IsSim() {
			d.sys.Clock.Sleep(d.BalanceCPUCost)
		}
		d.refillInactive()
	}
}

//hipec:hotpath
func (d *Daemon) refillInactive() {
	for d.Inactive.Len() < d.Targets.Inactive && !d.Active.Empty() {
		p := d.Active.DequeueHead()
		p.Referenced = false
		d.Inactive.EnqueueTail(p)
		d.events.Emit(kevent.Event{Type: kevent.EvDaemonDeactivate, Arg: int64(p.Object), Aux: p.Offset})
	}
}

// TakeFree extracts up to n frames from the machine free pool for a
// specific application's private list, balancing (stealing from
// non-specific pages) as needed while honouring the reserve. It returns
// fewer than n frames when memory genuinely cannot be reclaimed.
func (d *Daemon) TakeFree(n int) []*mem.Page {
	return d.TakeFreeInto(make([]*mem.Page, 0, n), n)
}

// TakeFreeInto is TakeFree appending into a caller-supplied buffer, so
// steady-state callers (the frame manager's grant path) can reuse scratch
// across rounds instead of allocating a slice per call.
//
//hipec:hotpath
func (d *Daemon) TakeFreeInto(out []*mem.Page, n int) []*mem.Page {
	want := len(out) + n
	for len(out) < want {
		p := d.TakeOne()
		if p == nil {
			break
		}
		out = append(out, p)
	}
	return out
}

// TakeOne extracts a single frame from the machine free pool (balancing as
// TakeFree does), or nil when memory cannot be reclaimed. It never
// allocates: single-frame consumers (FlushExchange) call it directly
// rather than taking a one-element slice.
//
//hipec:hotpath
func (d *Daemon) TakeOne() *mem.Page {
	for {
		if d.FreeCount() <= d.Targets.Reserved {
			before := d.FreeCount()
			d.Balance()
			if d.FreeCount() <= d.Targets.Reserved && d.FreeCount() <= before {
				return nil // no progress possible
			}
			continue
		}
		return d.sys.Frames.Alloc()
	}
}

// ReturnFrame accepts a frame back into the machine free pool. The frame
// must be detached from any object and off all queues.
func (d *Daemon) ReturnFrame(p *mem.Page) {
	d.sys.Frames.Free(p)
}

// StartPeriodic schedules the daemon to wake every interval of virtual time
// and balance when the free pool is below target, mirroring the kernel
// thread. It reschedules itself forever; intended for long-running
// simulations. Sim-only: the realtime clock arms no timers and panics.
func (d *Daemon) StartPeriodic(interval time.Duration) {
	var schedule func()
	schedule = func() {
		d.sys.Clock.After(interval, func(simtime.Time) {
			if d.FreeCount() < d.Targets.Free {
				d.Balance()
			}
			schedule()
		})
	}
	schedule()
}
