package substrate

import (
	"sync/atomic"
	"time"

	"hipec/internal/simtime"
)

// RealClock is the wall-clock backend. It reads time and never schedules:
// the disk timing model, the calibrated cost charges, retry backoff and the
// timer queue all belong to the simulation (DESIGN.md §12), so Clock's
// After and At panic on it and its queue reads empty.
//
// Sleep still genuinely sleeps (a test harness's Advance), and counts every
// call with d > 0 so a realtime run can prove the engine never slept.
type RealClock struct {
	start  time.Time
	sleeps atomic.Int64
}

// NewRealClock returns a wall-clock substrate clock positioned at time zero
// (times read as nanoseconds since construction, mirroring the sim clock's
// nanoseconds since boot).
func NewRealClock() Clock { return Clock{impl: &RealClock{start: time.Now()}} }

// Now implements Impl: wall nanoseconds since construction.
func (c *RealClock) Now() simtime.Time { return simtime.Time(time.Since(c.start)) }

// Sleep implements Impl: a genuine sleep, counted when d > 0.
func (c *RealClock) Sleep(d time.Duration) {
	if d > 0 {
		c.sleeps.Add(1)
		time.Sleep(d)
	}
}

// Sleeps reports how many Sleep calls with a positive duration the clock
// has served. A realtime kernel's engine makes none.
func (c *RealClock) Sleeps() int64 { return c.sleeps.Load() }

var _ Impl = (*RealClock)(nil)
