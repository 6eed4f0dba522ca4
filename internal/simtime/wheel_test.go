package simtime

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// shadow is the wheel's oracle: the set of events scheduled through it and
// neither fired nor cancelled, kept as a plain slice. Every firing must be
// the (when, seq) minimum of that set, at max(when, the clock just before
// it fired), and Pending must always equal the set's size.
type shadow struct {
	t       *testing.T
	c       *Clock
	pending []shadowEvent
	seq     uint64
	// last is the clock as of the most recent observation: before each
	// top-level operation and after each callback (which may have slept).
	last Time
}

type shadowEvent struct {
	when Time
	seq  uint64
	e    *Event
}

func newShadow(t *testing.T) *shadow { return &shadow{t: t, c: NewClock()} }

// minIndex returns the index of the (when, seq) minimum, or -1.
func (s *shadow) minIndex() int {
	m := -1
	for i, p := range s.pending {
		if m < 0 || p.when < s.pending[m].when || (p.when == s.pending[m].when && p.seq < s.pending[m].seq) {
			m = i
		}
	}
	return m
}

func (s *shadow) remove(i int) {
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
}

// checkPending fails unless the clock's Pending matches the shadow set.
func (s *shadow) checkPending(where string) {
	s.t.Helper()
	if got, want := s.c.Pending(), len(s.pending); got != want {
		s.t.Fatalf("%s: Pending() = %d, shadow holds %d", where, got, want)
	}
}

// at schedules fn at absolute time when, through the clock and the shadow.
func (s *shadow) at(when Time, fn func(now Time)) *Event {
	seq := s.seq
	s.seq++
	e := s.c.At(when, func(now Time) {
		m := s.minIndex()
		if m < 0 || s.pending[m].seq != seq {
			s.t.Fatalf("event (when %v, seq %d) fired, but it is not the shadow minimum", when, seq)
		}
		s.remove(m)
		want := when
		if s.last > want {
			want = s.last
		}
		if now != want {
			s.t.Fatalf("event (when %v, seq %d) fired at %v, want %v", when, seq, now, want)
		}
		s.checkPending("fire")
		fn(now)
		s.last = s.c.Now()
	})
	s.pending = append(s.pending, shadowEvent{when, seq, e})
	return e
}

func (s *shadow) after(d Duration, fn func(now Time)) *Event {
	return s.at(s.c.Now().Add(d), fn)
}

func (s *shadow) cancel(e *Event) bool {
	s.t.Helper()
	want := false
	for i, p := range s.pending {
		if p.e == e {
			s.remove(i)
			want = true
			break
		}
	}
	if got := s.c.Cancel(e); got != want {
		s.t.Fatalf("Cancel = %v, shadow says pending = %v", got, want)
	}
	s.checkPending("cancel")
	return want
}

func (s *shadow) advance(d Duration) {
	s.t.Helper()
	s.last = s.c.Now()
	target := s.c.Now().Add(d)
	s.c.Advance(d)
	if m := s.minIndex(); m >= 0 && s.pending[m].when <= target {
		s.t.Fatalf("advance to %v left due event (when %v) pending", target, s.pending[m].when)
	}
	if s.c.Now() != target {
		s.t.Fatalf("advance ended at %v, want %v", s.c.Now(), target)
	}
	s.checkPending("advance")
}

func (s *shadow) runNext() bool {
	s.t.Helper()
	s.last = s.c.Now()
	had := len(s.pending) > 0
	if got := s.c.RunNext(); got != had {
		s.t.Fatalf("RunNext = %v, shadow holds %d events", got, len(s.pending))
	}
	s.checkPending("runnext")
	return had
}

func (s *shadow) peek() {
	s.t.Helper()
	when, ok := s.c.PeekNext()
	m := s.minIndex()
	if ok != (m >= 0) || (ok && when != s.pending[m].when) {
		s.t.Fatalf("PeekNext = %v, %v; shadow minimum index %d", when, ok, m)
	}
}

func (s *shadow) drain() {
	s.t.Helper()
	for s.runNext() {
	}
	if len(s.pending) != 0 {
		s.t.Fatalf("drain left %d shadow events", len(s.pending))
	}
}

// TestWheelHeapDifferentialRandom drives the wheel through random
// schedule/cancel/advance/drain sequences and checks every firing, cancel,
// peek and pending count against the shadow set.
func TestWheelHeapDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := newShadow(t)
			rng := rand.New(rand.NewSource(seed))
			var live []*Event
			nop := func(Time) {}
			for op := 0; op < 400; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // schedule
					// Mix of near, far, and beyond-horizon delays to
					// exercise every wheel level and the overflow list.
					var d Duration
					switch rng.Intn(4) {
					case 0:
						d = Duration(rng.Int63n(64)) // level 0
					case 1:
						d = Duration(rng.Int63n(1 << 18)) // mid levels
					case 2:
						d = Duration(rng.Int63n(1 << 40)) // high levels
					case 3:
						d = Duration(1<<50 + rng.Int63n(1<<50)) // overflow
					}
					live = append(live, s.after(d, nop))
				case 4: // cancel a random live handle
					if len(live) > 0 {
						i := rng.Intn(len(live))
						s.cancel(live[i])
						live = append(live[:i], live[i+1:]...)
					}
				case 5, 6, 7: // advance
					s.advance(Duration(rng.Int63n(1 << 20)))
					// Fired handles are recycled; drop stale references.
					live = live[:0]
				case 8: // run one event
					s.runNext()
					live = live[:0]
				case 9:
					s.peek()
				}
			}
			s.drain()
		})
	}
}

// TestWheelHeapDifferentialNestedAdvance exercises the pastDue machinery:
// a callback performs a nested advance that jumps the clock past pending
// events, which must still fire afterwards in (when, seq) order, each at
// the clock the nested advance left behind.
func TestWheelHeapDifferentialNestedAdvance(t *testing.T) {
	s := newShadow(t)
	fired := 0
	count := func(Time) { fired++ }
	for _, d := range []Duration{5, 10, 15, 70, 200, 1 << 30} {
		s.after(d, count)
	}
	// The event at t=5 sleeps re-entrantly far past every other pending
	// event, stranding them all.
	s.after(5, func(Time) { s.c.Sleep(1 << 31) })
	// Schedule during the nested window too.
	s.after(10, func(Time) { s.after(3, count) })
	s.advance(1 << 32)
	if fired != 7 {
		t.Fatalf("%d counted events fired, want 7", fired)
	}
}

// TestWheelHeapDifferentialEqualTimestamps pins FIFO tie-breaking when many
// events share deadlines, including events scheduled at the current
// instant.
func TestWheelHeapDifferentialEqualTimestamps(t *testing.T) {
	s := newShadow(t)
	fired := 0
	count := func(Time) { fired++ }
	for i := 0; i < 8; i++ {
		s.after(100, count)
		s.after(50, count)
		s.at(s.c.Now(), count)
	}
	s.advance(100)
	if fired != 24 {
		t.Fatalf("%d events fired, want 24", fired)
	}
}

func TestWheelOverflowEventsFire(t *testing.T) {
	c := NewClock()
	const far = Duration(1) << 52 // beyond the 64^8 ns horizon
	fired := false
	c.After(far, func(now Time) { fired = true })
	c.Advance(far - 1)
	if fired {
		t.Fatal("overflow event fired early")
	}
	c.Advance(1)
	if !fired {
		t.Fatal("overflow event never fired")
	}
}

// TestCancelledEventsAreRecycled pins event retention: cancelled timers
// must return to the freelist (not stay pinned by wheel slots), and the
// freelist must actually be reused by subsequent schedules.
func TestCancelledEventsAreRecycled(t *testing.T) {
	c := NewClock()
	evs := make([]*Event, 100)
	for i := range evs {
		evs[i] = c.After(Duration(i+1), func(Time) {})
	}
	for _, e := range evs {
		c.Cancel(e)
	}
	if got := c.FreelistLen(); got != 100 {
		t.Fatalf("FreelistLen after 100 cancels = %d, want 100", got)
	}
	e := c.After(1, func(Time) {})
	if got := c.FreelistLen(); got != 99 {
		t.Fatalf("FreelistLen after reuse = %d, want 99", got)
	}
	if e != evs[99] {
		t.Fatal("schedule did not reuse the freelist head")
	}
}

// TestSteadyStateTimerLoopDoesNotAllocate pins the hot-path contract: a
// schedule/fire cycle (the shape of disk completions and daemon wakeups)
// runs allocation-free once the freelist is primed. The callback closure
// is hoisted outside the loop — closures capturing loop state would
// allocate in the caller, not the clock.
func TestSteadyStateTimerLoopDoesNotAllocate(t *testing.T) {
	c := NewClock()
	fired := 0
	fn := func(Time) { fired++ }
	c.After(1, fn)
	c.Advance(1) // prime the freelist
	avg := testing.AllocsPerRun(1000, func() {
		c.After(7, fn)
		c.Advance(7)
	})
	if avg != 0 {
		t.Fatalf("schedule/fire cycle allocates %.1f/op, want 0", avg)
	}
	avg = testing.AllocsPerRun(1000, func() {
		c.Cancel(c.After(1<<40, fn))
	})
	if avg != 0 {
		t.Fatalf("schedule/cancel cycle allocates %.1f/op, want 0", avg)
	}
}

// TestFreelistIsBounded guards against the pool itself becoming a leak.
func TestFreelistIsBounded(t *testing.T) {
	c := NewClock()
	for i := 0; i < 10*maxFreelist; i++ {
		c.Cancel(c.After(1, func(Time) {}))
	}
	if got := c.FreelistLen(); got > maxFreelist {
		t.Fatalf("FreelistLen = %d, want <= %d", got, maxFreelist)
	}
}

func BenchmarkSchedulerScheduleFire(b *testing.B) {
	c := NewClock()
	fn := func(Time) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.After(100*time.Microsecond, fn)
		c.Advance(100 * time.Microsecond)
	}
}

// BenchmarkSchedulerPendingSet measures schedule/fire with a standing set
// of outstanding timers (the multi-container steady state).
func BenchmarkSchedulerPendingSet(b *testing.B) {
	c := NewClock()
	fn := func(Time) {}
	for i := 0; i < 256; i++ {
		c.After(Duration(1+i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.After(50*time.Microsecond, fn)
		c.Advance(50 * time.Microsecond)
	}
}
