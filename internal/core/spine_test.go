package core

import (
	"strings"
	"testing"

	"hipec/internal/kevent"
)

// --- satellite: the spine must not cost the hot path its zero-alloc pin --

// TestEventSpineFaultPathZeroAlloc pins the simple-fault activation —
// registry counting included, no sinks attached — at zero heap allocations
// per run, the property BENCH_0001/BENCH_0002 measure in wall time.
func TestEventSpineFaultPathZeroAlloc(t *testing.T) {
	k := testKernel(1024)
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 64*4096, WithPolicy(simpleSpec(64)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Touch(e.Start); err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := k.Executor.Run(c, EventPageFault)
		if err != nil {
			t.Fatal(err)
		}
		c.Free.EnqueueHead(res.Page)
		c.operands[SlotPageReg].Page = nil
	}
	// Warm up so one-time growth (registry scope slices, event queue) does
	// not count against the steady state.
	for i := 0; i < 64; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("fault activation allocates %.2f objects/run, want 0", allocs)
	}
}

// TestEventSpineCommandLoopZeroAlloc pins the sustained interpreter loop
// (1024 Arith/Comp/Jump commands per activation) at zero allocations, with
// the registry attached and the Trace sink nil.
func TestEventSpineCommandLoopZeroAlloc(t *testing.T) {
	k := testKernel(128)
	sp := k.NewSpace()
	spec := simpleSpec(8)
	ctr := uint8(SlotUser)
	limit := uint8(SlotUser + 1)
	spec.Operands = []OperandDecl{
		{Slot: ctr, Kind: KindInt, Name: "ctr"},
		{Slot: limit, Kind: KindInt, Name: "limit", Init: 1024, Const: true},
	}
	_, c, err := k.Allocate(sp, 8*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	zero := uint8(SlotUser + 2)
	c.operands[zero] = Operand{Kind: KindInt, Name: "z"}
	loop := c.AppendEventForTest(NewProgram(
		Encode(OpArith, ctr, zero, ArithMov),
		Encode(OpArith, ctr, 0, ArithInc),
		Encode(OpComp, ctr, limit, CompLT),
		Encode(OpJump, JumpIfTrue, 0, 2),
		Encode(OpReturn, SlotScratch, 0, 0),
	))
	run := func() {
		if _, err := k.Executor.Run(c, loop); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("command loop allocates %.2f objects/run, want 0", allocs)
	}
}

// --- the text trace is a sink adapter, fed only per-command events -------

func TestEventSpineTextTraceAdapter(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	e, _, err := k.Allocate(sp, 8*4096, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	k.Executor.Trace = k.NewTextTrace(&buf)
	if _, err := sp.Touch(e.Start); err != nil {
		t.Fatal(err)
	}
	k.Executor.Trace = nil
	out := buf.String()
	if out == "" {
		t.Fatal("trace sink saw no commands")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if int64(len(lines)) != k.Executor.TotalCommands() {
		t.Fatalf("trace has %d lines, executor interpreted %d commands", len(lines), k.Executor.TotalCommands())
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "hipec1 PageFault ") || !strings.Contains(line, "CC=") {
			t.Fatalf("malformed trace line: %q", line)
		}
	}
	// Trace-only events must not leak into the registry.
	if n := k.Registry().Count(kevent.EvPolicyCommand); n != 0 {
		t.Fatalf("registry counted %d policy.command events; they are Trace-only", n)
	}
}

// --- satellite: golden Kernel.Report over a deterministic workload -------

// goldenWorkload drives a small fixed scenario: one HiPEC container with a
// FIFO-style free pool over 8 pages, 20 touches with stride 3 (faults then
// hits), two denied accesses, and one container teardown.
func goldenWorkload(t *testing.T) *Kernel {
	t.Helper()
	k := testKernel(64)
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 8*4096, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		addr := e.Start + int64(i%8)*4096
		if i%3 == 0 {
			if _, err := sp.Write(addr); err != nil {
				t.Fatal(err)
			}
		} else if _, err := sp.Touch(addr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := sp.Touch(1 << 40); err == nil {
			t.Fatal("bad address succeeded")
		}
	}
	k.DestroyContainer(c)
	return k
}

const goldenReport = `machine: 64 frames x 4096 B (0.2 MB), 64 free
clock:   3.1952ms
vm:      22 accesses, 12 hits, 8 faults (0 page-ins, 8 zero-fills), 0 page-outs, 0 evictions
daemon:  active 0, inactive 0, targets free/inactive/reserved 16/21/4, 0 balances (0 reclaims, 0 reactivations)
manager: 0/32 frames granted to specific applications (partition_burst), 0 normal + 0 forced reclaims, 0 flush exchanges
checker: 0 wakeups (next interval 1s), 0 timeouts, 0 terminations
containers:
  #1 simple-fifo              destroyed  min    8, held    0 (free 0 / active 0 / inactive 0)  8 activations, 32 commands, 0 flushes
`

func TestEventSpineGoldenReport(t *testing.T) {
	k := goldenWorkload(t)
	got := k.Report()
	if got != goldenReport {
		t.Fatalf("Report drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, goldenReport)
	}
}
