// Package substrate is the seam between the HiPEC engine and the world it
// runs in. The engine — core, vm, pageout, disk, emm, machipc — depends on
// the two small contracts defined here:
//
//   - Clock: the source of time. The engine reads Now everywhere; on the
//     simulation it also charges modeled costs with Sleep and schedules
//     completions with After.
//   - Store: page-granular backing storage addressed by PageKey.
//
// Two substrates implement the contracts:
//
//   - The simulation substrate (Sim, NewSimClock, MemStore): a deterministic
//     discrete-event virtual clock (internal/simtime) and an in-memory
//     store. Time is modeled, not measured; two runs of the same workload
//     are byte-identical.
//   - The realtime substrate (NewRealClock, disk/filestore): a wall clock
//     and a store whose I/O takes real time. Time is measured, not
//     modeled. The rule: the disk timing model, the calibrated cost
//     charges, retry backoff and the timer queue are sim-only, decided by
//     each engine package from Clock.IsSim. The realtime clock reads time
//     and never schedules; its After and At panic.
//
// Devirtualization: Clock is a two-word struct, not an interface. The sim
// backend is a concrete *simtime.Clock field; every method tests it first
// and makes a direct (inlinable) call, so the simulation's hot paths — the
// executor's ~15 ns/command loop, the zero-allocation fault path — pay one
// predictable branch, never interface dispatch. Only the realtime backend
// goes through the Impl interface. This is also why every *simtime.Clock
// dereference in the tree lives inside this package: the hipecvet simclock
// pass enforces that the seam cannot silently erode.
package substrate

import (
	"time"

	"hipec/internal/simtime"
)

// Kind names a substrate backend family.
type Kind uint8

const (
	// KindSim is the deterministic discrete-event simulation substrate
	// (the zero value: a zero Config builds the classic simulated kernel).
	KindSim Kind = iota
	// KindReal is the wall-clock realtime substrate.
	KindReal
)

// String returns the kind's CLI name.
func (k Kind) String() string {
	if k == KindReal {
		return "real"
	}
	return "sim"
}

// Config selects the substrate a kernel is assembled on. The zero value is
// the simulation substrate with an in-memory store — byte-identical to the
// pre-seam kernel.
type Config struct {
	Kind Kind
	// Store overrides the backing store (e.g. a file-backed
	// filestore.Store for KindReal). Nil takes the in-memory MemStore.
	Store Store
}

// Timer is the handle returned by Clock.After/At; pass it to Clock.Cancel.
// Only the sim backend schedules: it returns its pooled *simtime.Event
// directly (no allocation); handles must not be retained after the timer
// fires or is cancelled.
type Timer interface {
	// When reports the timer's scheduled fire time.
	When() simtime.Time
}

// Impl is the backend contract behind Clock for non-sim substrates: a
// clock that reads time and sleeps, and has no timer queue. Clock answers
// every scheduling verb for such a backend itself — After and At panic,
// and the queue reads empty — because timers are sim-only.
type Impl interface {
	Now() simtime.Time
	Sleep(d time.Duration)
}

// errNoTimers is the panic message of After and At on a non-sim clock.
const errNoTimers = "substrate: the realtime clock never schedules; timers, disk completions and cost charges are sim-only"

// Clock is the engine's source of time. It is a small value (two words):
// copy it freely, compare it against the zero value with IsZero. The zero
// Clock is not usable — construct with NewSimClock, Sim, or NewRealClock.
type Clock struct {
	sim  *simtime.Clock // non-nil = simulation fast path, devirtualized
	impl Impl           // non-sim backend (realtime); nil when sim != nil
}

// NewSimClock returns a simulation-substrate clock positioned at virtual
// time zero, using the process-default event scheduler.
func NewSimClock() Clock { return Clock{sim: simtime.NewClock()} }

// Sim wraps an existing virtual clock. It is the bridge for callers that
// build the simtime.Clock themselves (scheduler-selection experiments).
func Sim(c *simtime.Clock) Clock { return Clock{sim: c} }

// IsZero reports whether the clock has no backend (the unusable zero value).
func (c Clock) IsZero() bool { return c.sim == nil && c.impl == nil }

// IsSim reports whether the clock is the deterministic simulation backend.
func (c Clock) IsSim() bool { return c.sim != nil }

// Backend returns the non-sim backend Impl, or nil for the sim substrate.
// Tests use it to read a RealClock's sleep count.
func (c Clock) Backend() Impl { return c.impl }

// Now reports the current time: virtual nanoseconds since clock creation
// (sim) or wall nanoseconds since clock creation (real).
//
//hipec:hotpath
func (c Clock) Now() simtime.Time {
	if c.sim != nil {
		return c.sim.Now()
	}
	return c.impl.Now()
}

// Sleep charges a blocking delay: the sim clock advances (firing due
// events), the real clock genuinely sleeps. Engine code charges only on the
// sim; a realtime kernel never sleeps.
//
//hipec:hotpath
func (c Clock) Sleep(d time.Duration) {
	if c.sim != nil {
		c.sim.Sleep(d)
		return
	}
	c.impl.Sleep(d)
}

// Advance moves time forward by d. On the sim backend this is the test
// harness's way of running the event queue; on the real backend it is a
// plain sleep (wall time advances itself).
func (c Clock) Advance(d time.Duration) {
	if c.sim != nil {
		c.sim.Advance(d)
		return
	}
	c.impl.Sleep(d)
}

// After schedules fn to run d from now; fn observes the clock at its fire
// time. Sim: a deterministic event. Timers are sim-only: the realtime
// clock panics.
func (c Clock) After(d time.Duration, fn func(now simtime.Time)) Timer {
	if c.sim != nil {
		return c.sim.After(d, fn)
	}
	panic(errNoTimers)
}

// At schedules fn at absolute time t (>= Now). Sim-only, like After.
func (c Clock) At(t simtime.Time, fn func(now simtime.Time)) Timer {
	if c.sim != nil {
		return c.sim.At(t, fn)
	}
	panic(errNoTimers)
}

// Cancel revokes a Timer returned by After/At, reporting whether it was
// still pending. A nil Timer is a no-op, and so is every Cancel on the
// realtime clock, where no timer can be pending.
func (c Clock) Cancel(t Timer) bool {
	if c.sim != nil {
		if t == nil {
			return c.sim.Cancel(nil)
		}
		return c.sim.Cancel(t.(*simtime.Event))
	}
	return false
}

// PeekNext reports the earliest pending timer deadline without firing it.
// The executor's batched charging uses it to stop at event boundaries; the
// realtime clock has no queue and reports ok=false.
//
//hipec:hotpath
func (c Clock) PeekNext() (simtime.Time, bool) {
	if c.sim != nil {
		return c.sim.PeekNext()
	}
	return 0, false
}

// Pending reports the number of scheduled, unfired timers (always 0 on the
// realtime clock).
func (c Clock) Pending() int {
	if c.sim != nil {
		return c.sim.Pending()
	}
	return 0
}

// RunUntil advances to time t, firing due events (sim) or sleeping until
// wall time t (real).
func (c Clock) RunUntil(t simtime.Time) {
	if c.sim != nil {
		c.sim.RunUntil(t)
		return
	}
	c.impl.Sleep(time.Duration(t.Sub(c.impl.Now())))
}

// RunNext fires the single earliest pending event, advancing time to it.
// The realtime clock has no events and reports false.
func (c Clock) RunNext() bool {
	if c.sim != nil {
		return c.sim.RunNext()
	}
	return false
}

// Drain fires pending events until the queue is empty or limit is reached
// (0 = unlimited), returning the number fired. The realtime clock has no
// events and reports 0.
func (c Clock) Drain(limit int) int {
	if c.sim != nil {
		return c.sim.Drain(limit)
	}
	return 0
}
