package core

import (
	"fmt"
	"time"

	"hipec/internal/hpl/verify"
	"hipec/internal/kevent"
	"hipec/internal/simtime"
)

// CheckerStats is a snapshot of security-checker activity, derived from the
// kernel event spine.
type CheckerStats struct {
	Wakeups       int64
	Timeouts      int64 // timed-out executions detected
	Terminations  int64 // containers killed (timeouts and runtime faults)
	SweepErrors   int64 // consistency-sweep violations found
	Validations   int64
	ValidationBad int64
}

// Checker is the in-kernel security checker (§4.3.3): it validates policy
// programs at registration time (illegal syntax, wrong operand types) and
// runs as a periodic watchdog that detects timed-out policy executions,
// halving its sleep interval when a timeout is found and doubling it
// otherwise, clamped to [250 ms, 8 s]:
//
//	WakeUp = WakeUp/2  if timeout detected
//	WakeUp = WakeUp*2  if no timeout detected
//	WakeUp clamped to [250 msec, 8 sec]
type Checker struct {
	kernel *Kernel

	// TimeOut is the execution budget after which a policy run is killed;
	// "the length of TimeOut period is determined manually by a
	// privileged user".
	TimeOut time.Duration
	// WakeUp is the current adaptive sleep period.
	WakeUp time.Duration
	// MinWakeUp and MaxWakeUp clamp the adaptive schedule.
	MinWakeUp, MaxWakeUp time.Duration
	// DeepSweep additionally validates queue structure on every wakeup
	// (§6 future work #3: "the security checker could do more").
	DeepSweep bool
	// AllowUnbounded downgrades the verifier's boundedness errors
	// (infinite-loop, stuck-loop, frame-leak) to warnings, accepting
	// specs whose termination only the watchdog timeout can enforce.
	// Intended for watchdog tests and experiments; the verifier's kind
	// and flow errors still reject.
	AllowUnbounded bool

	started bool
	stopped bool
}

// Stats reports checker counters, derived from the event spine.
func (ck *Checker) Stats() CheckerStats {
	sc := ck.kernel.Registry().Global()
	return CheckerStats{
		Wakeups:       sc.Counts[kevent.EvCheckerWakeup],
		Timeouts:      sc.Counts[kevent.EvCheckerTimeout],
		Terminations:  sc.Counts[kevent.EvCheckerKill],
		SweepErrors:   sc.Counts[kevent.EvCheckerSweepError],
		Validations:   sc.Counts[kevent.EvCheckerValidation],
		ValidationBad: sc.Flags[kevent.EvCheckerValidation],
	}
}

func newChecker(k *Kernel) *Checker {
	return &Checker{
		kernel:    k,
		TimeOut:   defaultExecTimeout,
		WakeUp:    time.Second,
		MinWakeUp: 250 * time.Millisecond,
		MaxWakeUp: 8 * time.Second,
	}
}

// Start schedules the watchdog on the kernel clock. Calling Start twice is
// a no-op. The watchdog is sim-only: the realtime clock arms no timers, so
// Start panics there (see Config.StartChecker).
func (ck *Checker) Start() {
	if ck.started {
		return
	}
	ck.started = true
	ck.schedule()
}

// Stop prevents further wakeups after the next one fires.
func (ck *Checker) Stop() { ck.stopped = true }

func (ck *Checker) schedule() {
	ck.kernel.Clock.After(ck.WakeUp, ck.wake)
}

func (ck *Checker) wake(now simtime.Time) {
	if ck.stopped {
		return
	}
	ck.kernel.emit(kevent.Event{Type: kevent.EvCheckerWakeup})
	detected := false
	// Copy: terminating mutates the list.
	containers := append([]*Container(nil), ck.kernel.FM.containers...)
	for _, c := range containers {
		if executing, since := c.Executing(); executing && now.Sub(since) > ck.TimeOut {
			// Flag the executor; it aborts at its next poll and the
			// kernel terminates the application.
			c.timedOut = true
			detected = true
			ck.kernel.emit(kevent.Event{Type: kevent.EvCheckerTimeout, Container: int32(c.ID)})
		}
		if ck.DeepSweep {
			for _, q := range c.queues() {
				if err := q.Validate(); err != nil {
					ck.kernel.emit(kevent.Event{Type: kevent.EvCheckerSweepError, Container: int32(c.ID)})
					ck.kernel.terminate(c, fmt.Sprintf("checker sweep: %v", err))
					break
				}
			}
		}
	}
	if detected {
		ck.WakeUp /= 2
	} else {
		ck.WakeUp *= 2
	}
	if ck.WakeUp < ck.MinWakeUp {
		ck.WakeUp = ck.MinWakeUp
	}
	if ck.WakeUp > ck.MaxWakeUp {
		ck.WakeUp = ck.MaxWakeUp
	}
	ck.schedule()
}

// ValidateSpec runs the static verifier (internal/hpl/verify) over a
// constructed container's spec: structural and operand-kind checks, the
// Activate call graph, page-register def-before-use, the CR-aware flow
// walk, loop boundedness, and Request/Release frame balance. Every
// diagnostic is emitted on the event spine; error-severity diagnostics are
// returned and reject the registration. A spec that verifies with no
// errors sets the container's verified bit, letting the executor skip the
// per-command checks the verifier proved redundant.
func (ck *Checker) ValidateSpec(c *Container) []error {
	diags := verify.Analyze(buildUnit(c))
	var errs []error
	for i := range diags {
		d := &diags[i]
		if ck.AllowUnbounded && d.Severity == verify.SevError && boundednessCode(d.Code) {
			d.Severity = verify.SevWarning
		}
		ck.kernel.emit(kevent.Event{
			Type: kevent.EvVerifyDiag, Container: int32(c.ID),
			Arg: int64(d.Severity), Aux: int64(d.Event),
			Flag: d.Severity == verify.SevError,
		})
		if d.Severity == verify.SevError {
			if d.Event < 0 {
				errs = append(errs, fmt.Errorf("spec %q: %s", c.spec.Name, d.Msg))
			} else {
				errs = append(errs, fmt.Errorf("event %s CC=%d: %s", d.EventName, d.CC, d.Msg))
			}
		}
	}
	c.verified = len(errs) == 0
	ck.noteValidation(errs)
	return errs
}

// boundednessCode reports whether a diagnostic code is a termination
// argument (the class AllowUnbounded waives) rather than a safety one.
func boundednessCode(code verify.Code) bool {
	switch code {
	case verify.CodeInfiniteLoop, verify.CodeStuckLoop, verify.CodeFrameLeak:
		return true
	}
	return false
}

// noteValidation emits the validation event; the Flag marks a rejection.
func (ck *Checker) noteValidation(errs []error) {
	ck.kernel.emit(kevent.Event{Type: kevent.EvCheckerValidation, Flag: len(errs) > 0})
}
