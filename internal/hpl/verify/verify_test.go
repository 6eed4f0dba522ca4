package verify

import (
	"strings"
	"testing"

	"hipec/internal/isa"
)

// unit builds a two-event Unit (PageFault, ReclaimFrame) with a declared
// user page register and int counter for the tests that need them.
func unit(t *testing.T, pf, rf isa.Program, extra ...isa.Program) *Unit {
	t.Helper()
	u := NewUnit("test")
	u.Events = append([]isa.Program{pf, rf}, extra...)
	u.Declare(isa.SlotUser, isa.KindPage, "victim", false)
	u.Declare(isa.SlotUser+1, isa.KindInt, "count", false)
	u.Declare(isa.SlotUser+2, isa.KindPage, "other", false)
	return u
}

func codes(diags []Diagnostic) []Code {
	var out []Code
	for _, d := range diags {
		out = append(out, d.Code)
	}
	return out
}

func hasCode(diags []Diagnostic, c Code, sev Severity) bool {
	for _, d := range diags {
		if d.Code == c && d.Severity == sev {
			return true
		}
	}
	return false
}

// ret is the minimal valid event body.
func ret() isa.Program {
	return isa.NewProgram(isa.Encode(isa.OpReturn, 0, 0, 0))
}

// pfAlloc is a well-formed PageFault handler: dequeue a free frame, return
// it.
func pfAlloc() isa.Program {
	return isa.NewProgram(
		isa.Encode(isa.OpDeQueue, isa.SlotUser, isa.SlotFreeQueue, isa.QueueHead),
		isa.Encode(isa.OpReturn, isa.SlotUser, 0, 0),
	)
}

func TestCleanProgramNoDiagnostics(t *testing.T) {
	u := unit(t, pfAlloc(), isa.NewProgram(
		isa.Encode(isa.OpDeQueue, isa.SlotUser, isa.SlotActiveQueue, isa.QueueHead),
		isa.Encode(isa.OpEnQueue, isa.SlotUser, isa.SlotFreeQueue, isa.QueueTail),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	))
	diags := Analyze(u)
	if len(diags) != 0 {
		t.Fatalf("expected clean verification, got %v", diags)
	}
}

func TestMissingMagic(t *testing.T) {
	u := unit(t, isa.Program{isa.Encode(isa.OpReturn, 0, 0, 0)}, ret())
	if !hasCode(Analyze(u), CodeMissingMagic, SevError) {
		t.Fatal("want missing-magic error")
	}
}

func TestMissingEvents(t *testing.T) {
	u := NewUnit("test")
	u.Events = []isa.Program{pfAlloc()}
	if !hasCode(Analyze(u), CodeMissingEvent, SevError) {
		t.Fatal("want missing-event error")
	}
}

func TestIllegalOpcodeAndBadFlag(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.Opcode(0x7f), 0, 0, 0),
		isa.Encode(isa.OpComp, isa.SlotZero, isa.SlotOne, 99),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	diags := Analyze(u)
	if !hasCode(diags, CodeIllegalOpcode, SevError) || !hasCode(diags, CodeBadFlag, SevError) {
		t.Fatalf("want illegal-opcode and bad-flag, got %v", codes(diags))
	}
}

func TestOperandKindMismatch(t *testing.T) {
	// EnQueue with an int where a page register is required.
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpEnQueue, isa.SlotUser+1, isa.SlotFreeQueue, isa.QueueTail),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeOperandKind, SevError) {
		t.Fatal("want operand-kind error")
	}
}

func TestReadOnlyWrite(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpArith, isa.SlotZero, isa.SlotOne, isa.ArithAdd),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeReadOnlyWrite, SevError) {
		t.Fatal("want readonly-write error")
	}
}

func TestKindInferenceConflict(t *testing.T) {
	// Binary-lint mode: slot 0x40 is undeclared; used as both queue and page.
	u := NewUnit("bin")
	u.Events = []isa.Program{
		isa.NewProgram(
			isa.Encode(isa.OpEmptyQ, 0x40, 0, 0),
			isa.Encode(isa.OpRef, 0x40, 0, 0),
			isa.Encode(isa.OpReturn, 0, 0, 0),
		),
		ret(),
	}
	if !hasCode(Analyze(u), CodeKindConflict, SevError) {
		t.Fatal("want kind-conflict error")
	}
}

func TestRunOffEnd(t *testing.T) {
	// No Return and control reaches the end.
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpArith, isa.SlotUser+1, 0, isa.ArithInc),
	), ret())
	diags := Analyze(u)
	if !hasCode(diags, CodeRunOffEnd, SevError) || !hasCode(diags, CodeNoReturn, SevError) {
		t.Fatalf("want run-off-end and no-return, got %v", codes(diags))
	}
}

// TestRunOffEndBehindKernelOutcome is the regression for the old checkFlow
// unsoundness: a "Jump if-false" directly after Request was treated as
// always taken because Request was modeled as clearing CR. In reality CR
// holds the grant outcome, so the fall-through path is realizable.
func TestRunOffEndBehindKernelOutcome(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpRequest, isa.SlotOne, 0, 0),
		isa.Encode(isa.OpJump, isa.JumpIfFalse, 0, 3),
		// fall-through on CR=true runs off the end
	), ret())
	if !hasCode(Analyze(u), CodeRunOffEnd, SevError) {
		t.Fatal("want run-off-end error on the CR-true fall-through after Request")
	}
}

func TestUnreachableCode(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpReturn, 0, 0, 0),
		isa.Encode(isa.OpArith, isa.SlotUser+1, 0, isa.ArithInc),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeUnreachable, SevWarning) {
		t.Fatal("want unreachable warning")
	}
}

func TestSelfActivateCycle(t *testing.T) {
	pf := isa.NewProgram(
		isa.Encode(isa.OpActivate, 0, 0, 0), // PageFault activates itself
		isa.Encode(isa.OpReturn, 0, 0, 0),
	)
	u := unit(t, pf, ret())
	if !hasCode(Analyze(u), CodeActivateCycle, SevError) {
		t.Fatal("want activate-cycle error for self-activation")
	}
}

// TestMutualActivateCycle is the headline regression: A activates B and B
// activates A used to pass validation and loop until the checker timeout.
func TestMutualActivateCycle(t *testing.T) {
	evA := isa.NewProgram(
		isa.Encode(isa.OpActivate, 3, 0, 0),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	)
	evB := isa.NewProgram(
		isa.Encode(isa.OpActivate, 2, 0, 0),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	)
	u := unit(t, pfAlloc(), ret(), evA, evB)
	diags := Analyze(u)
	if !hasCode(diags, CodeActivateCycle, SevError) {
		t.Fatalf("want activate-cycle error for mutual recursion, got %v", codes(diags))
	}
	found := false
	for _, d := range diags {
		if d.Code == CodeActivateCycle && strings.Contains(d.Msg, "->") {
			found = true
		}
	}
	if !found {
		t.Fatal("cycle diagnostic should name the event chain")
	}
}

func TestActivateDepthBudget(t *testing.T) {
	// A chain of 10 user events, each activating the next, exceeds the
	// default budget of 8.
	events := []isa.Program{pfAlloc(), ret()}
	const chain = 10
	for i := 0; i < chain; i++ {
		if i == chain-1 {
			events = append(events, ret())
			break
		}
		events = append(events, isa.NewProgram(
			isa.Encode(isa.OpActivate, uint8(3+i), 0, 0),
			isa.Encode(isa.OpReturn, 0, 0, 0),
		))
	}
	u := unit(t, events[0], events[1], events[2:]...)
	if !hasCode(Analyze(u), CodeActivateDepth, SevError) {
		t.Fatal("want activate-depth error for a 9-deep chain")
	}
}

func TestUndefinedEventActivate(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpActivate, 9, 0, 0),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeUndefinedEvent, SevError) {
		t.Fatal("want undefined-event error")
	}
}

// TestUndefinedPageRegister: the spec EnQueues a register no event ever
// fills with DeQueue or Find — a guaranteed empty-register fault that the
// old checker only caught at runtime.
func TestUndefinedPageRegister(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpEnQueue, isa.SlotUser+2, isa.SlotActiveQueue, isa.QueueTail),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeUndefinedPageReg, SevError) {
		t.Fatal("want undefined-page-register error")
	}
}

func TestDefinedPageRegisterClean(t *testing.T) {
	// The same use is fine when another event defines the register.
	rf := isa.NewProgram(
		isa.Encode(isa.OpDeQueue, isa.SlotUser+2, isa.SlotActiveQueue, isa.QueueHead),
		isa.Encode(isa.OpEnQueue, isa.SlotUser+2, isa.SlotFreeQueue, isa.QueueTail),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	)
	pf := isa.NewProgram(
		isa.Encode(isa.OpDeQueue, isa.SlotUser, isa.SlotFreeQueue, isa.QueueHead),
		isa.Encode(isa.OpReturn, isa.SlotUser, 0, 0),
	)
	u := unit(t, pf, rf)
	if hasCode(Analyze(u), CodeUndefinedPageReg, SevError) {
		t.Fatal("register defined in ReclaimFrame must not be flagged")
	}
}

func TestEmptyRegisterWarning(t *testing.T) {
	// EnQueue empties the register, then a second EnQueue of the same
	// register is a definite empty-register fault on that path.
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpDeQueue, isa.SlotUser, isa.SlotFreeQueue, isa.QueueHead),
		isa.Encode(isa.OpEnQueue, isa.SlotUser, isa.SlotActiveQueue, isa.QueueTail),
		isa.Encode(isa.OpEnQueue, isa.SlotUser, isa.SlotActiveQueue, isa.QueueTail),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeEmptyReg, SevWarning) {
		t.Fatal("want maybe-empty-register warning")
	}
}

// TestInfiniteLoopConstantFold: Comp over the read-only constants folds to
// a definite CR, proving the busy-wait never exits.
func TestInfiniteLoopConstantFold(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpComp, isa.SlotZero, isa.SlotOne, isa.CompLT), // 0 < 1: true
		isa.Encode(isa.OpJump, isa.JumpIfTrue, 0, 1),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeInfiniteLoop, SevError) {
		t.Fatal("want infinite-loop error for the constant busy-wait")
	}
}

func TestJumpAlwaysSelfLoop(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpJump, isa.JumpAlways, 0, 1),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	diags := Analyze(u)
	if !hasCode(diags, CodeInfiniteLoop, SevError) {
		t.Fatalf("want infinite-loop error, got %v", codes(diags))
	}
}

// TestStuckLoop: the loop's exit test reads a counter nothing in the loop
// writes, so no iteration can change the outcome.
func TestStuckLoop(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpEmptyQ, isa.SlotFreeQueue, 0, 0), // CC1: test free queue
		isa.Encode(isa.OpJump, isa.JumpIfTrue, 0, 1),      // CC2: loop while empty
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeStuckLoop, SevError) {
		t.Fatal("want stuck-loop error: nothing in the loop refills the free queue")
	}
}

// TestProgressLoopClean mirrors the paper's reclaim idiom: the loop
// dequeues from the queue whose emptiness gates the exit, so it drains.
func TestProgressLoopClean(t *testing.T) {
	rf := isa.NewProgram(
		isa.Encode(isa.OpEmptyQ, isa.SlotActiveQueue, 0, 0),
		isa.Encode(isa.OpJump, isa.JumpIfTrue, 0, 6),
		isa.Encode(isa.OpDeQueue, isa.SlotUser, isa.SlotActiveQueue, isa.QueueHead),
		isa.Encode(isa.OpEnQueue, isa.SlotUser, isa.SlotFreeQueue, isa.QueueTail),
		isa.Encode(isa.OpJump, isa.JumpAlways, 0, 1),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	)
	u := unit(t, pfAlloc(), rf)
	diags := Analyze(u)
	if HasErrors(diags) {
		t.Fatalf("draining loop must verify clean, got %v", diags)
	}
}

// TestCounterProgressLoopClean: an Arith-driven countdown loop whose exit
// Comp reads the counter being decremented.
func TestCounterProgressLoopClean(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpComp, isa.SlotUser+1, isa.SlotZero, isa.CompGT),
		isa.Encode(isa.OpJump, isa.JumpIfFalse, 0, 5),
		isa.Encode(isa.OpArith, isa.SlotUser+1, 0, isa.ArithDec),
		isa.Encode(isa.OpJump, isa.JumpAlways, 0, 1),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if HasErrors(Analyze(u)) {
		t.Fatalf("countdown loop must verify clean, got %v", Analyze(u))
	}
}

// TestFrameLeakLoop: Request in a loop with no Release and an exit test
// (EmptyQ of Active) blind to the grant outcome — unbounded frame requests
// that today only die at the checker timeout.
func TestFrameLeakLoop(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpRequest, isa.SlotOne, 0, 0),        // CC1
		isa.Encode(isa.OpEmptyQ, isa.SlotActiveQueue, 0, 0), // CC2
		isa.Encode(isa.OpJump, isa.JumpIfTrue, 0, 1),        // CC3: loop blind to grant
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeFrameLeak, SevError) {
		t.Fatal("want frame-leak error for the blind Request loop")
	}
}

// TestRequestLoopConditionedClean: branching on the Request outcome right
// after it, with an exit on failure, bounds the loop acceptably.
func TestRequestLoopConditionedClean(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpRequest, isa.SlotOne, 0, 0),      // CC1
		isa.Encode(isa.OpJump, isa.JumpIfFalse, 0, 5),     // CC2: exit on denial
		isa.Encode(isa.OpEmptyQ, isa.SlotFreeQueue, 0, 0), // CC3
		isa.Encode(isa.OpJump, isa.JumpIfTrue, 0, 1),      // CC4
		isa.Encode(isa.OpReturn, 0, 0, 0),                 // CC5
	), ret())
	if hasCode(Analyze(u), CodeFrameLeak, SevError) {
		t.Fatalf("grant-conditioned Request loop must not be a frame leak: %v", Analyze(u))
	}
}

func TestNoReleaseWarning(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpRequest, isa.SlotOne, 0, 0),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeNoRelease, SevWarning) {
		t.Fatal("want no-release warning")
	}
}

func TestExtensionGating(t *testing.T) {
	prog := isa.NewProgram(
		isa.Encode(isa.OpAge, isa.SlotActiveQueue, 0, 0),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	)
	u := unit(t, pfAlloc(), prog)
	if !hasCode(Analyze(u), CodeExtension, SevError) {
		t.Fatal("want extension-disabled error")
	}
	u = unit(t, pfAlloc(), prog)
	u.Extensions = true
	if hasCode(Analyze(u), CodeExtension, SevError) {
		t.Fatal("extensions enabled: Age must pass")
	}
}

func TestJumpRange(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpJump, isa.JumpAlways, 0, 200),
		isa.Encode(isa.OpReturn, 0, 0, 0),
	), ret())
	if !hasCode(Analyze(u), CodeJumpRange, SevError) {
		t.Fatal("want jump-range error")
	}
}

func TestDiagnosticOrdering(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpReturn, 0, 0, 0),
		isa.Encode(isa.OpArith, isa.SlotUser+1, 0, isa.ArithInc), // unreachable (warning)
		isa.Encode(isa.Opcode(0x7f), 0, 0, 0),                    // illegal (error)
	), ret())
	diags := Analyze(u)
	if len(diags) < 2 {
		t.Fatalf("want at least 2 diagnostics, got %v", diags)
	}
	if diags[0].Severity != SevError {
		t.Fatalf("errors must sort first, got %v", diags)
	}
	if !strings.Contains(diags[0].String(), "[illegal-opcode]") {
		t.Fatalf("String must include the code, got %q", diags[0].String())
	}
}

// TestFindCorrelation: Find leaves CR correlated with the register — on the
// CR-true branch the register is full, so using it there is clean; on the
// CR-false branch it is empty.
func TestFindCorrelation(t *testing.T) {
	u := unit(t, isa.NewProgram(
		isa.Encode(isa.OpFind, isa.SlotUser, isa.SlotUser+1, 0),                     // CC1
		isa.Encode(isa.OpJump, isa.JumpIfFalse, 0, 4),                               // CC2
		isa.Encode(isa.OpEnQueue, isa.SlotUser, isa.SlotActiveQueue, isa.QueueTail), // CC3: full here
		isa.Encode(isa.OpReturn, 0, 0, 0),                                           // CC4
	), ret())
	if hasCode(Analyze(u), CodeEmptyReg, SevWarning) {
		t.Fatalf("CR-true branch after Find must know the register is full: %v", Analyze(u))
	}

	// Using the register on the not-found branch is flagged.
	u = unit(t, isa.NewProgram(
		isa.Encode(isa.OpFind, isa.SlotUser, isa.SlotUser+1, 0),                     // CC1
		isa.Encode(isa.OpJump, isa.JumpIfTrue, 0, 4),                                // CC2
		isa.Encode(isa.OpEnQueue, isa.SlotUser, isa.SlotActiveQueue, isa.QueueTail), // CC3: empty here
		isa.Encode(isa.OpReturn, 0, 0, 0),                                           // CC4
	), ret())
	if !hasCode(Analyze(u), CodeEmptyReg, SevWarning) {
		t.Fatal("CR-false branch after Find must know the register is empty")
	}
}
