// Package hipec is the public API of the HiPEC reproduction: a
// High-Performance External virtual-memory Caching mechanism (Lee, Chen,
// Chang — OSDI 1994) implemented on a deterministic simulated Mach-3.0-like
// kernel.
//
// HiPEC lets an application control page replacement for its own memory
// regions without crossing the kernel/user boundary: the application
// registers a policy — a program in the 20-command HiPEC command set — and
// the in-kernel policy executor interprets it at every page fault on the
// region, against a private frame pool granted by the global frame manager.
//
// # Quick start
//
//	k := hipec.New(hipec.Config{Frames: 16384}) // 64 MB machine
//	task := k.NewSpace()
//
//	spec, err := hipec.Translate("mru", `
//	    minframe = 1024
//	    event PageFault() {
//	        if (empty(_free_queue)) { mru(_active_queue) }
//	        page = dequeue_head(_free_queue)
//	        return page
//	    }
//	    event ReclaimFrame() {
//	        if (empty(_free_queue)) { fifo(_active_queue) }
//	        if (!empty(_free_queue)) { release(1) }
//	        return
//	    }`)
//	if err != nil { ... }
//
//	region, container, err := k.Allocate(task, 8<<20, hipec.WithPolicy(spec))
//	if err != nil { ... }
//	task.Touch(region.Start) // faults run the policy
//
// # Two substrates
//
// The engine runs on a pluggable substrate (Config.Substrate):
//
//   - Simulation (the zero value): everything is driven by a deterministic
//     virtual clock (k.Clock) — elapsed times are virtual nanoseconds
//     calibrated to the paper's testbed, experiments reproduce bit-for-bit,
//     and the kernel is single-goroutine.
//   - Realtime (SubstrateConfig{Kind: SubstrateReal, Store: ...}): the same
//     engine on wall-clock time — frames carry real 4 KB payloads, a
//     file-backed store (NewFileStore) does genuine I/O, and concurrent
//     callers drive the kernel through the serialized command loop
//     (NewClient). Time is measured rather than modeled: the cost charges,
//     the disk timing model, retry backoff and timers (so the checker
//     watchdog) are sim-only. See examples/realcache.
//
// # Serving over the network
//
// A realtime cache can serve remote clients: Serve puts a tiny
// length-prefixed binary wire protocol in front of the command loop, and
// Dial returns a network client speaking it. Both the in-process loop and
// the network client satisfy the transport-agnostic Client interface, so
// cache code runs unchanged against either (compare examples/realcache and
// examples/netcache):
//
//	srv, err := hipec.Serve("127.0.0.1:0", store,
//	    hipec.WithMaxConns(128), hipec.WithBatchWindow(100*time.Microsecond))
//	...
//	cli, err := hipec.Dial(srv.Addr().String())
//	region, err := cli.Open(64, hipec.WithPolicySource("mru", hipec.PolicyMRUSource(16)))
//	err = cli.WritePage(region, 3, payload)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package hipec

import (
	"hipec/internal/core"
	"hipec/internal/disk/filestore"
	"hipec/internal/emm"
	"hipec/internal/faultinj"
	"hipec/internal/hiperr"
	"hipec/internal/hpl"
	"hipec/internal/kevent"
	"hipec/internal/mem"
	"hipec/internal/pageout"
	"hipec/internal/policies"
	"hipec/internal/server"
	"hipec/internal/simtime"
	"hipec/internal/store"
	"hipec/internal/substrate"
	"hipec/internal/trace"
	"hipec/internal/vm"
)

// Core kernel types.
type (
	// Kernel is the simulated Mach-with-HiPEC kernel.
	Kernel = core.Kernel
	// Config assembles a Kernel.
	Config = core.Config
	// Spec is a complete user policy: event programs plus operand
	// declarations and resource parameters.
	Spec = core.Spec
	// Container is the kernel object recording a specific application's
	// operand array, command buffers and private frame lists.
	Container = core.Container
	// Program is one event's command sequence.
	Program = core.Program
	// Command is one encoded 32-bit HiPEC command.
	Command = core.Command
	// Opcode is the 8-bit HiPEC operator code.
	Opcode = core.Opcode
	// OperandDecl declares an application operand slot.
	OperandDecl = core.OperandDecl
	// ExecCosts calibrates policy-execution time charging.
	ExecCosts = core.ExecCosts
	// ContainerState is a container's lifecycle state.
	ContainerState = core.ContainerState
)

// Container lifecycle states.
const (
	StateActive     = core.StateActive
	StateTerminated = core.StateTerminated
	StateDestroyed  = core.StateDestroyed
	StateRevoked    = core.StateRevoked
)

// Allocation options for Kernel.Allocate / Kernel.Map.
type AllocOption = core.AllocOption

var (
	// WithPolicy places the region under a HiPEC policy (vm_allocate_hipec).
	WithPolicy = core.WithPolicy
	// WithPager backs the region with an external memory manager.
	WithPager = core.WithPager
	// WithRetryBudget overrides the fault path's retry budget per region.
	WithRetryBudget = core.WithRetryBudget
)

// VM substrate types.
type (
	// AddressSpace is a task's virtual address space.
	AddressSpace = vm.AddressSpace
	// MapEntry is one mapped region.
	MapEntry = vm.MapEntry
	// Object is a Mach VM object.
	Object = vm.Object
	// Page is a physical page frame descriptor.
	Page = mem.Page
	// PageQueue is an intrusive list of page frames.
	PageQueue = mem.Queue
	// Policy is the replacement-policy interface the fault handler calls.
	Policy = vm.Policy
	// Fault describes one page fault in flight.
	Fault = vm.Fault
	// VMCosts calibrates the VM layer's time charging.
	VMCosts = vm.Costs
	// PageoutTargets are the default daemon's watermarks.
	PageoutTargets = pageout.Targets
	// Time is virtual time since kernel boot.
	Time = simtime.Time
)

// Kernel event spine (internal/kevent): every subsystem emits typed Event
// records into one stream; consumers implement Sink. Attach sinks at
// construction via Config.Sinks or at runtime via Kernel.Events().Attach.
// The Registry (Kernel.Registry()) aggregates the stream into per-system,
// per-space and per-container counters — the single source of truth behind
// Kernel.Report() and every subsystem's Stats() snapshot.
type (
	// Event is one fixed-layout kernel event record.
	Event = kevent.Event
	// EventType identifies one kind of kernel event.
	EventType = kevent.Type
	// Sink consumes kernel events.
	Sink = kevent.Sink
	// Registry is the metrics view of the event stream.
	Registry = kevent.Registry
	// EventLog is an in-memory event capture sink.
	EventLog = kevent.Log
)

var (
	// NewEventLogWriter builds a streaming event-log sink (see cmd/replaydiff).
	NewEventLogWriter = kevent.NewLogWriter
	// ReadEventLog parses a serialized event log.
	ReadEventLog = kevent.ReadLog
)

// Substrate selection (internal/substrate): the seam between the engine and
// the world it runs in. The zero SubstrateConfig is the deterministic
// simulation; SubstrateReal runs the same engine on wall-clock time.
type (
	// SubstrateConfig selects the substrate a kernel is assembled on
	// (Config.Substrate).
	SubstrateConfig = substrate.Config
	// SubstrateKind names a substrate backend family.
	SubstrateKind = substrate.Kind
	// Store is page-granular backing storage — transfers, deletion, Sync,
	// I/O counters and Close, implemented in full by every backend; the
	// realtime substrate accepts one via SubstrateConfig.Store.
	Store = substrate.Store
	// FileStore is the realtime substrate's slot-file page store, moving
	// pages with pread/pwrite or, opened mapped, through an mmap of the
	// file (degrading to pread/pwrite where mmap is unavailable).
	FileStore = filestore.Store
	// TieredStore layers a fast store over a slow one: write-through or
	// write-back, promotion on read, FIFO eviction at the fast-tier cap.
	TieredStore = store.Tiered
	// TieredMode selects a TieredStore's write policy.
	TieredMode = store.TieredMode
	// ShardedStore fans pages out across N child stores by a deterministic
	// hash of the page key.
	ShardedStore = store.Sharded
	// StoreBackend is a Store opened by kind (OpenStore) that also names
	// itself — what the CLI surfaces hand around.
	StoreBackend = store.Backend
	// Loop is the actor-style serialized command loop that makes a
	// (typically realtime) kernel safe for concurrent callers. Its typed
	// methods satisfy Client; Call/Async additionally accept closures for
	// in-process callers that need the full kernel.
	Loop = core.Loop
)

// Substrate kinds.
const (
	// SubstrateSim is the deterministic discrete-event simulation (default).
	SubstrateSim = substrate.KindSim
	// SubstrateReal is the wall-clock realtime substrate.
	SubstrateReal = substrate.KindReal
)

// Tiered-store write policies.
const (
	// WriteThrough lands every write on both tiers synchronously.
	WriteThrough = store.WriteThrough
	// WriteBack dirties the fast tier; the slow tier catches up on Sync
	// and eviction.
	WriteBack = store.WriteBack
)

var (
	// NewFileStore opens (truncating) a file-backed page store.
	NewFileStore = filestore.Open
	// NewTempFileStore opens a file-backed page store on a fresh temp file
	// that Close removes.
	NewTempFileStore = filestore.OpenTemp
	// NewTieredStore layers fast over slow with the given mode and
	// fast-tier page cap (<= 0 for unbounded).
	NewTieredStore = store.NewTiered
	// NewShardedStore fans out across the child stores.
	NewShardedStore = store.NewSharded
	// NewMmapStore opens (truncating) a file-backed page store in its
	// mapped I/O mode.
	NewMmapStore = filestore.OpenMapped
	// NewTempMmapStore opens a mapped file-backed page store on a fresh
	// temp file that Close removes.
	NewTempMmapStore = filestore.OpenTempMapped
	// OpenStore opens a backend by kind name — "file", "mem", "tiered",
	// "sharded" or "mmap" — the same selector the CLI -store flags take.
	OpenStore = store.Open
	// InjectStoreFaults wraps a store so a fault plane decides which page
	// transfers fail (hiperr.ErrDiskIO), exercising the recovery ladder.
	InjectStoreFaults = store.InjectFaults
	// ErrLoopClosed is returned by Loop.Call after Loop.Close.
	ErrLoopClosed = core.ErrLoopClosed
)

// Client is the transport-agnostic command surface of a HiPEC cache: open a
// region (optionally under a policy), drive pages by index, snapshot
// counters. Two implementations exist and application code should accept
// the interface so it runs against either:
//
//   - *Loop (NewClient): in-process — every method is one hop through the
//     serialized command loop onto the kernel.
//   - *NetClient (Dial): remote — every method is a wire-protocol exchange
//     with a Serve-d cache; concurrent goroutines pipeline over one
//     connection and the server batches their commands per Loop hop.
//
// Async contract: TouchAsync returns true when the command was ENQUEUED
// (in-process: placed in the loop mailbox; remote: accepted for
// transmission), NOT when it was applied. A command enqueued as the loop or
// connection shuts down may be discarded without running; callers that must
// know their command applied use the synchronous methods.
type Client interface {
	// Open allocates a region of pages pages and returns its handle.
	// WithPolicySource attaches a HiPEC policy, translated and verified
	// where the kernel lives; WithPolicySpec is in-process only.
	Open(pages int, opts ...RegionOption) (RegionID, error)
	// WritePage write-faults one page and stores data (length <=
	// PageSize) at its head.
	WritePage(r RegionID, page int, data []byte) error
	// ReadPage touch-faults one page and copies up to len(buf) payload
	// bytes into buf, returning the count.
	ReadPage(r RegionID, page int, buf []byte) (int, error)
	// TouchPage read-faults one page without moving payload.
	TouchPage(r RegionID, page int) error
	// TouchAsync enqueues a touch and reports whether it was enqueued —
	// see the interface comment for the (non-)guarantee.
	TouchAsync(r RegionID, page int) bool
	// FreeRegion releases a region and everything it holds.
	FreeRegion(r RegionID) error
	// Stats snapshots machine-wide cache counters.
	Stats() (CacheStats, error)
	// PageSize reports the cache's page size in bytes.
	PageSize() int
	// Close releases the client. In-process this stops the command loop;
	// remote it drops the connection and the server frees the session's
	// regions.
	Close()
}

// Client-seam types.
type (
	// RegionID is a session-scoped region handle.
	RegionID = core.RegionID
	// RegionOption configures Client.Open.
	RegionOption = core.RegionOption
	// CacheStats is the Client.Stats counter snapshot.
	CacheStats = core.CacheStats
	// NetClient is the network implementation of Client, returned by Dial.
	NetClient = server.Client
	// Server serves the wire protocol in front of a realtime kernel.
	Server = server.Server
	// ServeOption configures Serve.
	ServeOption = server.Option
)

// Both implementations must keep satisfying the seam.
var (
	_ Client = (*Loop)(nil)
	_ Client = (*NetClient)(nil)
)

var (
	// WithPolicySpec places an opened region under an already-translated
	// policy (in-process clients only).
	WithPolicySpec = core.WithPolicySpec
	// WithPolicySource places an opened region under the policy whose HPL
	// source is given; translation and static verification happen where
	// the kernel lives, so it works across the wire.
	WithPolicySource = core.WithPolicySource
	// WithRegionRetryBudget tunes the opened region's page-in retry budget.
	WithRegionRetryBudget = core.WithRegionRetryBudget

	// WithMaxConns bounds a server's concurrently served connections.
	WithMaxConns = server.WithMaxConns
	// WithMaxBatch bounds how many wire commands one Loop hop applies.
	WithMaxBatch = server.WithMaxBatch
	// WithBatchWindow lets a connection linger for stragglers before
	// submitting a non-full batch.
	WithBatchWindow = server.WithBatchWindow
	// WithFrames sets a served kernel's physical memory in frames.
	WithFrames = server.WithFrames
	// WithBurstFraction sets a served kernel's partition_burst fraction.
	WithBurstFraction = server.WithBurstFraction
)

// NewClient wraps a kernel in a serialized command loop and returns it as
// the in-process Client. The concrete *Loop also exposes Call/Async for
// code that needs closures over the raw kernel; the kernel must not be
// touched outside them from then on.
func NewClient(k *Kernel) *Loop { return core.NewLoop(k) }

// Serve builds a realtime kernel over store (page size taken from the
// store), wraps it in a command loop, and serves the wire protocol on addr
// (":0" picks a port — see Server.Addr). Close the returned server before
// closing the store.
func Serve(addr string, store Store, opts ...ServeOption) (*Server, error) {
	srv := server.New(store, opts...)
	if err := srv.ListenAndServe(addr); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// Dial connects to a Serve-d cache and returns the network Client.
func Dial(addr string) (*NetClient, error) { return server.Dial(addr) }

// New builds a simulated kernel. Zero-valued Config fields take calibrated
// defaults (4 KB pages, the paper's fault/disk cost model, partition_burst
// at 50% of startup free memory).
func New(cfg Config) *Kernel { return core.New(cfg) }

// Translate compiles an HPL pseudo-code policy (the §4.3.4 translator) into
// a Spec.
func Translate(name, src string) (*Spec, error) { return hpl.Translate(name, src) }

// MustTranslate is Translate for known-good embedded policy source.
func MustTranslate(name, src string) *Spec { return hpl.MustTranslate(name, src) }

// Disassemble renders one event program as an annotated Table-2-style
// listing.
func Disassemble(p Program) string { return hpl.Disassemble(p) }

// DisassembleSpec renders every event of a spec.
func DisassembleSpec(s *Spec) string { return hpl.DisassembleSpec(s) }

// Canned policies (internal/policies).
var (
	// PolicyFIFO returns a plain FIFO replacement policy.
	PolicyFIFO = policies.FIFO
	// PolicyLRU returns a least-recently-used policy.
	PolicyLRU = policies.LRU
	// PolicyMRU returns the most-recently-used policy of §5.3.
	PolicyMRU = policies.MRU
	// PolicyFIFOSecondChance returns the paper's Figure 4 policy.
	PolicyFIFOSecondChance = policies.FIFOSecondChance
	// PolicySequentialToss returns a scan-resistant streaming policy.
	PolicySequentialToss = policies.SequentialToss
	// PolicyByName resolves a policy by CLI name.
	PolicyByName = policies.ByName
)

// Canned policy HPL sources: the same policies in their wire-portable form,
// for Client.Open's WithPolicySource (a *Spec does not serialize; source
// does, and is translated and verified server-side).
var (
	// PolicyFIFOSource is the plain FIFO policy's HPL source.
	PolicyFIFOSource = policies.FIFOSource
	// PolicyLRUSource is the LRU policy's HPL source.
	PolicyLRUSource = policies.LRUSource
	// PolicyMRUSource is the §5.3 MRU policy's HPL source.
	PolicyMRUSource = policies.MRUSource
	// PolicyFIFOSecondChanceSource is the Figure 4 policy's HPL source.
	PolicyFIFOSecondChanceSource = policies.FIFOSecondChanceSource
	// PolicySequentialTossSource is the streaming policy's HPL source.
	PolicySequentialTossSource = policies.SequentialTossSource
)

// Reserved event numbers.
const (
	EventPageFault    = core.EventPageFault
	EventReclaimFrame = core.EventReclaimFrame
	EventUser         = core.EventUser
)

// Error is the structured kernel error: every error surfaced by the public
// API wraps one, carrying the operation name, the space/container IDs and
// (for policy faults) the failing command counter. Classify with errors.Is
// against the sentinels below; recover the context with errors.As.
type Error = hiperr.Error

// Error sentinels, matchable through any wrap depth with errors.Is.
var (
	// ErrMinFrame is returned when activation cannot grant the requested
	// minimum frames.
	ErrMinFrame = hiperr.ErrMinFrame
	// ErrDiskIO marks an (injected) paging-device transfer failure.
	ErrDiskIO = hiperr.ErrDiskIO
	// ErrPagerLost marks a remote-pager network loss or timeout.
	ErrPagerLost = hiperr.ErrPagerLost
	// ErrPolicyFault marks a policy runtime fault or activation rejection.
	ErrPolicyFault = hiperr.ErrPolicyFault
	// ErrPolicyRejected marks a registration-time rejection by the static
	// verifier (it wraps ErrPolicyFault, so both sentinels match).
	ErrPolicyRejected = hiperr.ErrPolicyRejected
	// ErrRevoked marks an operation against a revoked (degraded) container.
	ErrRevoked = hiperr.ErrRevoked
	// ErrBadSpec marks a malformed policy spec (bad operand declarations).
	ErrBadSpec = hiperr.ErrBadSpec
	// ErrBadOperand marks host access to a policy operand that does not
	// exist, has the wrong kind, or cannot be written.
	ErrBadOperand = hiperr.ErrBadOperand
	// ErrBadRequest marks a malformed command on the client seam (unknown
	// region handle, page index out of range, oversized payload). It
	// round-trips the wire: a remote rejection still matches errors.Is.
	ErrBadRequest = hiperr.ErrBadRequest
)

// Fault injection (internal/faultinj): the deterministic chaos plane.
// Configure via Config.Faults; a zero Seed disables injection entirely.
type (
	// FaultConfig seeds and scopes the fault-injection plane.
	FaultConfig = faultinj.Config
	// FaultRule sets failure/latency rates for one injection class.
	FaultRule = faultinj.Rule
	// FaultPlane is the seeded deterministic decision source.
	FaultPlane = faultinj.Plane
	// RetryPolicy bounds the VM fault path's page-in retries.
	RetryPolicy = vm.Retry
)

// External memory management (internal/emm): user-level pagers behind the
// Mach EMM interface.
type (
	// Pager supplies and receives memory-object contents (Mach EMM).
	Pager = vm.Pager
	// StorePager is a user-level default pager (disk-backed).
	StorePager = emm.StorePager
	// RemotePager pages to remote memory over a modeled network.
	RemotePager = emm.RemotePager
	// CompressingPager keeps evicted pages deflate-compressed in memory.
	CompressingPager = emm.CompressingPager
	// FailoverPager pairs a lossy primary pager with a durable fallback
	// mirror and fails over after repeated primary losses.
	FailoverPager = emm.FailoverPager
	// BackendPager adapts any Store into a Pager, so real backends
	// (tiered, sharded, mmap) slot into the EMM recovery ladder.
	BackendPager = emm.BackendPager
)

var (
	// NewStorePager builds a disk-backed user-level pager.
	NewStorePager = emm.NewStorePager
	// NewBackendPager wraps a Store as a Pager.
	NewBackendPager = emm.NewBackendPager
	// NewRemotePager builds a remote-memory pager.
	NewRemotePager = emm.NewRemotePager
	// NewCompressingPager builds a compressed-memory pager.
	NewCompressingPager = emm.NewCompressingPager
	// NewFailoverPager builds a primary+fallback pager pair.
	NewFailoverPager = emm.NewFailoverPager
)

// Trace analysis (internal/trace): page-reference traces, replay, and the
// Belady-optimal baseline.
type (
	// Trace is a page-reference string.
	Trace = trace.Trace
	// TraceRecord is one page reference.
	TraceRecord = trace.Record
)

var (
	// ReadTrace parses a serialized trace.
	ReadTrace = trace.Read
	// ReplayTrace drives a trace against a mapped region.
	ReplayTrace = trace.Replay
	// OptimalFaults computes Belady's OPT fault count — the lower bound
	// no replacement policy can beat.
	OptimalFaults = trace.OPT
	// LRUFaults computes exact-LRU fault counts for a trace.
	LRUFaults = trace.LRU
	// AnalyzeTrace summarizes a trace (unique pages, reuse distances).
	AnalyzeTrace = trace.Analyze
)
