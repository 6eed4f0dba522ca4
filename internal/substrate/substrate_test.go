package substrate

import (
	"strings"
	"testing"
	"time"

	"hipec/internal/simtime"
)

func TestZeroClockIsZero(t *testing.T) {
	var c Clock
	if !c.IsZero() || c.IsSim() {
		t.Fatalf("zero clock: IsZero=%v IsSim=%v", c.IsZero(), c.IsSim())
	}
	if NewSimClock().IsZero() || NewRealClock().IsZero() {
		t.Fatal("constructed clocks report zero")
	}
}

// TestSimFastPathMatchesConcreteClock: the devirtualized wrapper must be
// observationally identical to the concrete clock it wraps.
func TestSimFastPathMatchesConcreteClock(t *testing.T) {
	raw := simtime.NewClock()
	c := Sim(raw)
	if !c.IsSim() || c.Backend() != nil {
		t.Fatal("sim clock misreports its backend")
	}
	fired := simtime.Time(-1)
	tm := c.After(5*time.Millisecond, func(now simtime.Time) { fired = now })
	if want := simtime.Time(5 * time.Millisecond); tm.When() != want {
		t.Fatalf("When() = %v, want %v", tm.When(), want)
	}
	if next, ok := c.PeekNext(); !ok || next != simtime.Time(5*time.Millisecond) {
		t.Fatalf("PeekNext = %v,%v", next, ok)
	}
	c.Sleep(2 * time.Millisecond)
	if c.Now() != raw.Now() || c.Now() != simtime.Time(2*time.Millisecond) {
		t.Fatalf("Now diverged: wrapper %v raw %v", c.Now(), raw.Now())
	}
	c.Advance(10 * time.Millisecond)
	if fired != simtime.Time(5*time.Millisecond) {
		t.Fatalf("event fired at %v", fired)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d", c.Pending())
	}
}

func TestSimCancel(t *testing.T) {
	c := NewSimClock()
	ran := false
	tm := c.After(time.Millisecond, func(simtime.Time) { ran = true })
	if !c.Cancel(tm) {
		t.Fatal("Cancel reported not pending")
	}
	if c.Cancel(nil) {
		t.Fatal("Cancel(nil) reported pending")
	}
	c.Advance(5 * time.Millisecond)
	if ran {
		t.Fatal("cancelled event fired")
	}
}

func TestRealClockNowAdvances(t *testing.T) {
	c := NewRealClock()
	a := c.Now()
	c.Sleep(2 * time.Millisecond)
	if b := c.Now(); b.Sub(a) < time.Millisecond {
		t.Fatalf("wall clock barely moved: %v -> %v", a, b)
	}
}

// TestRealClockCountsSleeps: every positive Sleep is counted; zero and
// negative ones are not.
func TestRealClockCountsSleeps(t *testing.T) {
	c := NewRealClock()
	rc := c.Backend().(*RealClock)
	c.Sleep(0)
	c.Sleep(-time.Millisecond)
	if got := rc.Sleeps(); got != 0 {
		t.Fatalf("Sleeps after non-positive sleeps = %d, want 0", got)
	}
	c.Sleep(time.Microsecond)
	c.Advance(time.Microsecond)
	if got := rc.Sleeps(); got != 2 {
		t.Fatalf("Sleeps = %d, want 2", got)
	}
}

// TestRealClockNoQueueSemantics: the realtime clock reads time and never
// schedules — nothing peekable, pending or runnable, and arming a timer
// panics with the sim-only rule.
func TestRealClockNoQueueSemantics(t *testing.T) {
	c := NewRealClock()
	if _, ok := c.PeekNext(); ok {
		t.Fatal("PeekNext reported a deadline")
	}
	if c.RunNext() {
		t.Fatal("RunNext fired something")
	}
	if n := c.Drain(0); n != 0 {
		t.Fatalf("Drain fired %d", n)
	}
	if c.Pending() != 0 || c.Cancel(nil) {
		t.Fatal("realtime clock reports a pending timer")
	}
	for name, arm := range map[string]func(){
		"After": func() { c.After(time.Millisecond, func(simtime.Time) {}) },
		"At":    func() { c.At(c.Now().Add(time.Millisecond), func(simtime.Time) {}) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "sim-only") {
					t.Errorf("%s: panic %q, want the sim-only rule", name, msg)
				}
			}()
			arm()
		}()
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore(4096, true)
	key := PageKey{Object: 7, Offset: 8192}
	if s.Contains(key) {
		t.Fatal("empty store contains a page")
	}
	if err := s.WritePage(key, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.ReadPage(key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(data) != 4096 || data[0] != 1 || data[2] != 3 {
		t.Fatalf("read back ok=%v len=%d", ok, len(data))
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestMemStoreMetadataOnly(t *testing.T) {
	s := NewMemStore(4096, false)
	key := PageKey{Object: 1, Offset: 0}
	if err := s.WritePage(key, []byte{1}); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.ReadPage(key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || data != nil {
		t.Fatalf("metadata-only store kept data: ok=%v data=%v", ok, data)
	}
}
