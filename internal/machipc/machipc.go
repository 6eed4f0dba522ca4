// Package machipc models the Mach communication primitives that HiPEC is
// compared against in Table 4 of the paper: system-call traps, message-based
// IPC (ports), and upcalls. It also implements an external-pager baseline —
// a user-level memory manager in the style of Mach's EMM interface extended
// per McNamee's PREMO — whose every replacement decision pays an IPC round
// trip, which is precisely the overhead HiPEC's in-kernel executor avoids.
//
// Costs are calibrated from Table 4 (null syscall 19 µs, null IPC 292 µs on
// the paper's i486-50 testbed) and charged to the simulation clock. A real
// goroutine-channel round trip (RealPort) is also provided so benchmarks can
// report modern measured numbers next to the calibrated ones.
package machipc

import (
	"errors"
	"time"

	"hipec/internal/mem"
	"hipec/internal/substrate"
	"hipec/internal/vm"
)

// Costs are the calibrated mechanism costs (Table 4).
type Costs struct {
	NullSyscall time.Duration // user->kernel trap and return
	NullIPC     time.Duration // full message round trip between tasks
	// Upcall is a kernel->user procedure invocation. The paper uses the
	// null-syscall time to describe upcall overhead ("the overhead is
	// mainly in allocating area for new user stack and changing stacks").
	Upcall time.Duration
}

// DefaultCosts returns Table 4's measured values.
func DefaultCosts() Costs {
	return Costs{
		NullSyscall: 19 * time.Microsecond,
		NullIPC:     292 * time.Microsecond,
		Upcall:      19 * time.Microsecond,
	}
}

// Stats counts simulated mechanism activity.
type Stats struct {
	Syscalls int64
	Messages int64 // one-way messages
	RPCs     int64 // request/reply pairs
	Upcalls  int64
}

// IPC charges mechanism costs to the virtual clock.
type IPC struct {
	Clock substrate.Clock
	Costs Costs
	Stats Stats
}

// New creates an IPC cost model on clock.
func New(clock substrate.Clock, costs Costs) *IPC {
	if costs == (Costs{}) {
		costs = DefaultCosts()
	}
	return &IPC{Clock: clock, Costs: costs}
}

// Syscall charges one trap and runs fn in "kernel mode".
func (i *IPC) Syscall(fn func()) {
	i.Stats.Syscalls++
	i.Clock.Sleep(i.Costs.NullSyscall)
	if fn != nil {
		fn()
	}
}

// Upcall charges a kernel->user invocation (stack switch) and runs fn in
// "user mode"; returning charges the trap back into the kernel.
func (i *IPC) Upcall(fn func()) {
	i.Stats.Upcalls++
	i.Clock.Sleep(i.Costs.Upcall)
	if fn != nil {
		fn()
	}
	i.Clock.Sleep(i.Costs.NullSyscall)
}

// Message is one Mach-style typed message.
type Message struct {
	ID   int
	Body any
}

// Handler processes a request message and produces a reply.
type Handler func(Message) Message

// Port is a simulated Mach port: a named message endpoint with a server
// handler. Calls are synchronous and charge the full IPC round trip.
type Port struct {
	Name    string
	ipc     *IPC
	handler Handler
	backlog []Message
}

// NewPort allocates a port served by handler (may be nil for a queue-only
// port used with Send/Receive).
func (i *IPC) NewPort(name string, handler Handler) *Port {
	return &Port{Name: name, ipc: i, handler: handler}
}

// ErrNoServer is returned by Call on a port with no registered handler.
var ErrNoServer = errors.New("machipc: port has no server")

// Call performs a synchronous RPC: request out, reply back, one null-IPC
// charge end to end (Table 4 measures the round trip).
func (p *Port) Call(req Message) (Message, error) {
	if p.handler == nil {
		return Message{}, ErrNoServer
	}
	p.ipc.Stats.RPCs++
	p.ipc.Stats.Messages += 2
	p.ipc.Clock.Sleep(p.ipc.Costs.NullIPC)
	return p.handler(req), nil
}

// Send enqueues a one-way message, charging half a round trip.
func (p *Port) Send(msg Message) {
	p.ipc.Stats.Messages++
	p.ipc.Clock.Sleep(p.ipc.Costs.NullIPC / 2)
	if p.handler != nil {
		p.handler(msg)
		return
	}
	p.backlog = append(p.backlog, msg)
}

// Receive dequeues a pending message from a queue-only port.
func (p *Port) Receive() (Message, bool) {
	if len(p.backlog) == 0 {
		return Message{}, false
	}
	m := p.backlog[0]
	p.backlog = p.backlog[1:]
	return m, true
}

// Pending reports queued messages.
func (p *Port) Pending() int { return len(p.backlog) }

// --- External pager baseline ----------------------------------------------

// EMM message IDs, mirroring the Mach external memory management interface.
const (
	MsgDataRequest  = 1 // kernel -> pager: need a frame / victim decision
	MsgDataReturn   = 2 // pager -> kernel: victim choice
	MsgDataWrite    = 3 // kernel -> pager: dirty page contents
	MsgObjectDestry = 4
)

// VictimFunc is the user-level pager's replacement decision: given the
// resident queue, pick a victim (nil means "no opinion", evict queue head).
type VictimFunc func(resident *mem.Queue) *mem.Page

// ExtPagerPolicy is a vm.Policy that consults a user-level memory manager
// over IPC on every replacement decision, PREMO-style: the kernel sends a
// data_request, the user task picks the victim with whatever policy it
// likes, and replies. Functionally equivalent control to HiPEC, but every
// fault that needs a replacement pays Costs.NullIPC — the overhead Table 4
// contrasts with HiPEC's ≈150 ns command interpretation.
type ExtPagerPolicy struct {
	PolicyName string
	ipc        *IPC
	sys        *vm.System
	port       *Port
	resident   *mem.Queue
	pool       []*mem.Page // private free frames
	victim     VictimFunc

	Faults       int64
	Replacements int64
}

// NewExtPager grants the policy poolFrames private frames (taken directly
// from the frame table) and installs the user-level victim function behind
// a port.
func NewExtPager(name string, ipc *IPC, sys *vm.System, poolFrames int, victim VictimFunc) (*ExtPagerPolicy, error) {
	p := &ExtPagerPolicy{
		PolicyName: name,
		ipc:        ipc,
		sys:        sys,
		resident:   mem.NewQueue("extpager_" + name),
		victim:     victim,
	}
	// Keep the resident queue in exact recency order (head = LRU,
	// tail = MRU) so user-level victim functions can be O(1).
	p.resident.AccessOrder = true
	for i := 0; i < poolFrames; i++ {
		f := sys.Frames.Alloc()
		if f == nil {
			for _, q := range p.pool {
				sys.Frames.Free(q)
			}
			return nil, vm.ErrNoMemory
		}
		p.pool = append(p.pool, f)
	}
	p.port = ipc.NewPort("pager:"+name, func(req Message) Message {
		// This handler body is the "user-level pager": it runs the
		// application's replacement policy outside the kernel.
		if req.ID != MsgDataRequest {
			return Message{ID: MsgDataReturn}
		}
		var v *mem.Page
		if p.victim != nil {
			v = p.victim(p.resident)
		}
		if v == nil {
			v = p.resident.Head() // default: FIFO
		}
		return Message{ID: MsgDataReturn, Body: v}
	})
	return p, nil
}

// Name implements vm.Policy.
func (p *ExtPagerPolicy) Name() string { return "extpager:" + p.PolicyName }

// PageFor implements vm.Policy: free frames are handed out directly; when
// the pool is empty the kernel must consult the user-level pager over IPC
// for a victim.
func (p *ExtPagerPolicy) PageFor(f *vm.Fault) (*mem.Page, error) {
	p.Faults++
	if n := len(p.pool); n > 0 {
		pg := p.pool[n-1]
		p.pool = p.pool[:n-1]
		return pg, nil
	}
	if p.resident.Empty() {
		return nil, vm.ErrNoMemory
	}
	reply, err := p.port.Call(Message{ID: MsgDataRequest})
	if err != nil {
		return nil, err
	}
	victim, ok := reply.Body.(*mem.Page)
	if !ok || victim == nil || !victim.InQueue(p.resident) {
		victim = p.resident.Head()
	}
	p.resident.Remove(victim)
	if victim.Modified {
		// data_write back to the pager: another message.
		p.port.Send(Message{ID: MsgDataWrite, Body: victim})
		p.sys.PageOut(victim, nil)
	}
	p.sys.Detach(victim)
	victim.Object, victim.Offset = 0, 0
	p.Replacements++
	return victim, nil
}

// Installed implements vm.Policy.
func (p *ExtPagerPolicy) Installed(f *vm.Fault, pg *mem.Page) {
	if !pg.Wired {
		p.resident.EnqueueTail(pg)
	}
}

// Release implements vm.Policy.
func (p *ExtPagerPolicy) Release(pg *mem.Page) {
	if pg.Queue() == p.resident {
		p.resident.Remove(pg)
	}
}

var _ vm.Policy = (*ExtPagerPolicy)(nil)

// --- Real (wall-clock) mechanisms for modern measurements ------------------

// RealPort is a live goroutine server for measuring an actual Go
// channel-based RPC round trip, the closest modern analogue to a null IPC.
type RealPort struct {
	req    chan int
	resp   chan int
	done   chan struct{}
	exited chan struct{} // closed when the echo goroutine has returned
}

// NewRealPort starts the echo server goroutine.
func NewRealPort() *RealPort {
	p := &RealPort{
		req:    make(chan int),
		resp:   make(chan int),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go func() {
		defer close(p.exited)
		for {
			select {
			case v := <-p.req:
				p.resp <- v
			case <-p.done:
				return
			}
		}
	}()
	return p
}

// Call performs one round trip.
func (p *RealPort) Call(v int) int {
	p.req <- v
	return <-p.resp
}

// Close stops the server and returns only once its goroutine has exited.
func (p *RealPort) Close() {
	close(p.done)
	<-p.exited
}
