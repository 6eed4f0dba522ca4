package core

import (
	"cmp"
	"fmt"
	"slices"

	"hipec/internal/faultinj"
	"hipec/internal/hiperr"
	"hipec/internal/kevent"
	"hipec/internal/mem"
	"hipec/internal/pageout"
	"hipec/internal/simtime"
)

// ErrMinFrame is returned when HiPEC activation cannot grant the requested
// minimum frame count ("If the minFrame request cannot be satisfied when
// HiPEC is initially invoked, an error code is returned. The specific
// application can either run as a non-specific application or terminate and
// retry later", §4.3.1). It is the hiperr sentinel, re-exported for
// compatibility.
var ErrMinFrame = hiperr.ErrMinFrame

// FMStats is a snapshot of global frame manager activity, derived from the
// kernel event spine.
type FMStats struct {
	Grants          int64 // Request commands granted
	Denials         int64 // Request commands denied
	FramesGranted   int64
	FramesReturned  int64
	NormalReclaims  int64 // frames recovered via ReclaimFrame events (FAFR)
	ForcedReclaims  int64 // frames recovered by forced reclamation
	FlushExchanges  int64
	LaunderPending  int64 // frames waiting for their flush write to finish
	ImplicitFlushes int64 // dirty pages laundered because a policy freed them uncleaned
}

// FrameManager is the HiPEC global frame manager (§4.3.1). It is "the
// pageout daemon acting as global frame manager": it allocates free page
// frames to specific applications, reclaims them under the partition_burst
// watermark, and performs page flushing on their behalf.
type FrameManager struct {
	kernel *Kernel
	Daemon *pageout.Daemon

	// PartitionBurst caps the total frames granted to all specific
	// applications; the paper sets it to 50% of the free frames at
	// startup.
	PartitionBurst int

	specificTotal int
	containers    []*Container // FAFR order: first allocated, first reclaimed

	// ReclaimPolicy selects how BalanceSpecific picks victims. FAFR is
	// the paper's policy; the alternatives implement §6 future work #4.
	ReclaimPolicy ReclaimPolicy
	rrNext        int // round-robin cursor
	// victimScratch backs victimOrder's candidate slice between reclaims;
	// nil while a reclaim iteration holds it (see victimOrder).
	victimScratch []*Container
	// grantScratch backs Request's frame list between grants, claimed the
	// same way so a nested Request (a ReclaimFrame policy requesting
	// frames) allocates privately instead of clobbering the outer grant.
	grantScratch []*mem.Page
	// forcedScratch backs reclaimForced's candidate list between passes.
	forcedScratch []forcedCand
}

// forcedCand is one (container, page) forced-reclamation candidate.
type forcedCand struct {
	c *Container
	p *mem.Page
}

// emit sends an event down the kernel spine.
func (fm *FrameManager) emit(e kevent.Event) { fm.kernel.emit(e) }

// Stats reports frame manager counters, derived from the event spine.
// Initial minFrame grants at activation carry the event Flag, so Grants
// (Request-command grants only) excludes them while FramesGranted counts
// their frames.
func (fm *FrameManager) Stats() FMStats {
	sc := fm.kernel.Registry().Global()
	return FMStats{
		Grants:          sc.Counts[kevent.EvFMGrant] - sc.Flags[kevent.EvFMGrant],
		Denials:         sc.Counts[kevent.EvFMDeny],
		FramesGranted:   sc.Sums[kevent.EvFMGrant],
		FramesReturned:  sc.Sums[kevent.EvFMReturn],
		NormalReclaims:  sc.Sums[kevent.EvFMReclaimNormal],
		ForcedReclaims:  sc.Counts[kevent.EvFMReclaimForced],
		FlushExchanges:  sc.Counts[kevent.EvFMFlushExchange],
		LaunderPending:  sc.Counts[kevent.EvFMLaunderStart] - sc.Counts[kevent.EvFMLaunderDone],
		ImplicitFlushes: sc.Counts[kevent.EvFMImplicitFlush],
	}
}

// ReclaimPolicy names a victim-selection strategy for container-level
// reclamation.
type ReclaimPolicy uint8

const (
	// ReclaimFAFR is the paper's First Allocated, First Reclaimed.
	ReclaimFAFR ReclaimPolicy = iota
	// ReclaimRoundRobin rotates the starting container between passes.
	ReclaimRoundRobin
	// ReclaimProportional asks the largest-overage container first.
	ReclaimProportional
)

func newFrameManager(k *Kernel, d *pageout.Daemon, burstFrac float64) *FrameManager {
	if burstFrac <= 0 || burstFrac > 1 {
		burstFrac = 0.5
	}
	return &FrameManager{
		kernel:         k,
		Daemon:         d,
		PartitionBurst: int(float64(d.FreeCount()) * burstFrac),
	}
}

// SpecificTotal reports the frames currently granted to all containers.
func (fm *FrameManager) SpecificTotal() int { return fm.specificTotal }

// Containers returns the live container list in FAFR order.
func (fm *FrameManager) Containers() []*Container { return fm.containers }

// attach grants a new container its minFrame frames and links it at the end
// of the container list (FAFR order).
func (fm *FrameManager) attach(c *Container) error {
	need := c.MinFrame
	if need <= 0 {
		return fmt.Errorf("container %d declares minFrame %d: %w", c.ID, need, ErrMinFrame)
	}
	frames := fm.Daemon.TakeFree(need)
	if len(frames) < need {
		// Try recovering frames from earlier specific applications
		// before giving up.
		fm.reclaim(need-len(frames), c)
		frames = append(frames, fm.Daemon.TakeFree(need-len(frames))...)
	}
	if len(frames) < need {
		for _, p := range frames {
			fm.Daemon.ReturnFrame(p)
		}
		return fmt.Errorf("%w: want %d frames, got %d", ErrMinFrame, need, len(frames))
	}
	for _, p := range frames {
		p.Object, p.Offset = 0, 0
		c.Free.EnqueueTail(p)
	}
	c.allocated = need
	fm.specificTotal += need
	fm.emit(kevent.Event{Type: kevent.EvFMGrant, Container: int32(c.ID), Arg: int64(need), Flag: true})
	fm.containers = append(fm.containers, c)
	return nil
}

// detach removes a container from the manager's list.
func (fm *FrameManager) detach(c *Container) {
	for i, cc := range fm.containers {
		if cc == c {
			fm.containers = append(fm.containers[:i], fm.containers[i+1:]...)
			return
		}
	}
}

// Request implements the Request command: grant n more frames to c, or
// reject ("the global frame manager grants or rejects the request depending
// on the number of the remaining free page frames and the status of the
// requester", §4.3.1). Grants are all-or-nothing; a rejected request leaves
// state unchanged and the executor's CR tells the policy to cope.
//
//hipec:hotpath
func (fm *FrameManager) Request(c *Container, n int) bool {
	if n == 0 {
		return true
	}
	if dec := fm.kernel.Inject.Decide(faultinj.FrameGrant); dec.Fail {
		// Injected denial under (simulated) pressure: policies already
		// cope with denial via the condition register, so this exercises
		// exactly the paper's reject path.
		fm.emit(kevent.Event{Type: kevent.EvInjectGrantDeny, Container: int32(c.ID), Arg: int64(n)})
		fm.emit(kevent.Event{Type: kevent.EvFMDeny, Container: int32(c.ID), Arg: int64(n), Flag: true})
		return false
	}
	if fm.specificTotal+n > fm.PartitionBurst {
		// Over the watermark: try to deallocate from other specific
		// applications first, then re-check.
		fm.reclaim(fm.specificTotal+n-fm.PartitionBurst, c)
		if fm.specificTotal+n > fm.PartitionBurst {
			fm.emit(kevent.Event{Type: kevent.EvFMDeny, Container: int32(c.ID), Arg: int64(n)})
			return false
		}
	}
	// Claim the grant scratch (a nested Request allocates privately).
	scratch := fm.grantScratch
	fm.grantScratch = nil
	frames := fm.Daemon.TakeFreeInto(scratch[:0], n)
	granted := len(frames) >= n
	for _, p := range frames {
		if granted {
			p.Object, p.Offset = 0, 0
			c.Free.EnqueueTail(p)
		} else {
			fm.Daemon.ReturnFrame(p)
		}
	}
	clear(frames)
	fm.grantScratch = frames[:0]
	if !granted {
		fm.emit(kevent.Event{Type: kevent.EvFMDeny, Container: int32(c.ID), Arg: int64(n)})
		return false
	}
	c.allocated += n
	fm.specificTotal += n
	fm.emit(kevent.Event{Type: kevent.EvFMGrant, Container: int32(c.ID), Arg: int64(n)})
	return true
}

// retire takes a page out of residency (detaching it from its object and
// laundering dirty contents) without changing frame ownership. After retire
// the frame is a clean, anonymous frame suitable for a private free list.
func (fm *FrameManager) retire(c *Container, p *mem.Page) error {
	if p.Wired {
		return fmt.Errorf("cannot retire wired frame %d: %w", p.Frame, hiperr.ErrPolicyFault)
	}
	if p.Object != 0 {
		obj := fm.kernel.VM.Object(p.Object)
		if obj != nil && obj.Resident(p.Offset) == p {
			if p.Modified {
				// The policy freed a dirty page without Flush; the
				// kernel launders it rather than lose data. If the
				// write-back fails the page stays resident and dirty —
				// retiring it would lose the only copy.
				if err := fm.kernel.VM.PageOut(p, nil); err != nil {
					return fmt.Errorf("launder frame %d: %w", p.Frame, err)
				}
				fm.emit(kevent.Event{Type: kevent.EvFMImplicitFlush, Container: int32(c.ID), Arg: int64(p.Object), Aux: p.Offset})
			}
			fm.kernel.VM.Detach(p)
		}
		p.Object, p.Offset = 0, 0
	}
	return nil
}

// ReleaseFrame returns one frame from c to the machine pool. The page must
// be off all queues; it may still be resident (it will be retired). It
// reports whether the frame was actually released: wired pages and pages
// whose laundering write failed stay with the container.
func (fm *FrameManager) ReleaseFrame(c *Container, p *mem.Page) bool {
	if err := fm.retire(c, p); err != nil {
		return false
	}
	fm.Daemon.ReturnFrame(p)
	c.allocated--
	fm.specificTotal--
	fm.emit(kevent.Event{Type: kevent.EvFMReturn, Container: int32(c.ID), Arg: 1})
	return true
}

// ReleaseFromFree returns up to n frames from c's private free list to the
// machine pool, reporting how many were released.
func (fm *FrameManager) ReleaseFromFree(c *Container, n int) int {
	released := 0
	for released < n {
		p := c.Free.DequeueHead()
		if p == nil {
			break
		}
		fm.Daemon.ReturnFrame(p)
		c.allocated--
		fm.specificTotal--
		released++
	}
	if released > 0 {
		fm.emit(kevent.Event{Type: kevent.EvFMReturn, Container: int32(c.ID), Arg: int64(released)})
	}
	return released
}

// noteReleased records frames freed on the manager's behalf by the VM layer
// (object teardown via Container.Release).
func (fm *FrameManager) noteReleased(c *Container, n int) {
	fm.specificTotal -= n
	if fm.specificTotal < 0 {
		fm.specificTotal = 0
	}
	if n > 0 {
		fm.emit(kevent.Event{Type: kevent.EvFMReturn, Container: int32(c.ID), Arg: int64(n)})
	}
}

// FlushExchange implements the Flush command's I/O handling (§4.3.1): the
// executor "releases the flushed page to a VM object of the global frame
// manager and receives a new free page", so it never waits for disk. The
// flushed frame rejoins the machine pool when its write completes. If no
// replacement frame is available the write happens synchronously and the
// same frame is handed back clean. On the realtime substrate every dirty
// flush takes that synchronous branch: the store write is the whole
// transfer, and write completions are sim-only. Clean pages are simply
// retired and returned as-is.
//
// ok reports whether the flush succeeded. On failure the returned page is
// the caller's own page back (still resident and dirty when its write-back
// failed — the contents are the only copy) or nil for a wired page; the
// policy sees CR=false and copes.
//
//hipec:hotpath
func (fm *FrameManager) FlushExchange(c *Container, p *mem.Page) (_ *mem.Page, ok bool) {
	if !p.Modified {
		fm.emit(kevent.Event{Type: kevent.EvFMFlushExchange, Container: int32(c.ID)})
		if err := fm.retire(c, p); err != nil {
			return nil, false
		}
		return p, true
	}
	var np *mem.Page
	if fm.kernel.Clock.IsSim() {
		np = fm.Daemon.TakeOne()
	}
	if np == nil {
		// Synchronous flush (realtime, or no replacement frame on the
		// sim): reuse the same frame.
		fm.emit(kevent.Event{Type: kevent.EvFMFlushExchange, Container: int32(c.ID)})
		if err := fm.kernel.VM.PageOutSync(p); err != nil {
			// Write-back failed: the page stays resident and dirty.
			return p, false
		}
		fm.kernel.VM.Detach(p)
		p.Object, p.Offset = 0, 0
		return p, true
	}
	np.Object, np.Offset = 0, 0
	// Asynchronous laundering: store write is immediate (contents safe),
	// the disk write completes later, and only then does the frame rejoin
	// the pool. The Flag marks the asynchronous (exchange) path.
	cid := int32(c.ID)
	obj := fm.kernel.VM.Object(p.Object)
	fm.emit(kevent.Event{Type: kevent.EvFMFlushExchange, Container: cid, Flag: true})
	//hipec:vet-ignore hotalloc -- laundering completion callback rides the asynchronous disk write; its capture is noise against the I/O it tracks
	if err := fm.kernel.VM.PageOut(p, func(simtime.Time) {
		p.Object, p.Offset = 0, 0
		fm.Daemon.ReturnFrame(p)
		fm.emit(kevent.Event{Type: kevent.EvFMLaunderDone, Container: cid})
	}); err != nil {
		// Write-back failed before anything was detached: give the
		// replacement frame back and return the dirty page to the policy.
		fm.Daemon.ReturnFrame(np)
		return p, false
	}
	fm.emit(kevent.Event{Type: kevent.EvFMLaunderStart, Container: cid, Arg: int64(p.Object), Aux: p.Offset})
	if obj != nil && obj.Resident(p.Offset) == p {
		fm.kernel.VM.Detach(p)
	}
	p.Object, p.Offset = 0, 0 // identity cleared; completion callback re-clears harmlessly
	return np, true
}

// reclaim recovers at least want frames for the machine pool from specific
// applications other than skip, first by normal reclamation (running each
// victim's ReclaimFrame event, FAFR order) and then, if still short, by
// forced reclamation (§4.3.1 Deallocation). It returns the number of frames
// recovered.
func (fm *FrameManager) reclaim(want int, skip *Container) int {
	if want <= 0 {
		return 0
	}
	recovered := fm.reclaimNormal(want, skip)
	if recovered < want {
		recovered += fm.reclaimForced(want-recovered, skip)
	}
	return recovered
}

// victimOrder returns candidate containers per the configured policy. The
// returned slice aliases the manager's scratch buffer — reclaim runs on
// every frame request under memory pressure, and allocating a fresh sorted
// slice per reclaim showed up as steady garbage in sweep profiles. Callers
// hand the slice back via releaseVictims. victimOrder claims the scratch
// (nils the field) so a nested reclaim — a ReclaimFrame policy whose own
// Request triggers another reclaim — allocates privately instead of
// clobbering the iteration in progress.
func (fm *FrameManager) victimOrder() []*Container {
	scratch := fm.victimScratch
	fm.victimScratch = nil
	out := append(scratch[:0], fm.containers...)
	switch fm.ReclaimPolicy {
	case ReclaimRoundRobin:
		if len(out) > 1 {
			k := fm.rrNext % len(out)
			fm.rrNext++
			rotateLeft(out, k)
		}
	case ReclaimProportional:
		slices.SortStableFunc(out, func(a, b *Container) int {
			return cmp.Compare(b.allocated-b.MinFrame, a.allocated-a.MinFrame)
		})
	}
	return out
}

// releaseVictims returns a victimOrder slice to the scratch buffer. The
// elements are cleared so the scratch does not keep dead containers
// reachable between reclaims.
func (fm *FrameManager) releaseVictims(s []*Container) {
	clear(s)
	fm.victimScratch = s[:0]
}

// rotateLeft rotates s left by k in place (three-reversal), so the
// round-robin order starts at index k without allocating. The old code's
// append(out[k:], out[:k]...) only worked because out was freshly
// allocated at full capacity; on a reused scratch it would alias.
func rotateLeft[T any](s []T, k int) {
	reverse(s[:k])
	reverse(s[k:])
	reverse(s)
}

func reverse[T any](s []T) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func (fm *FrameManager) reclaimNormal(want int, skip *Container) int {
	recovered := 0
	victims := fm.victimOrder()
	defer fm.releaseVictims(victims)
	for _, cand := range victims {
		if recovered >= want {
			break
		}
		if cand == skip || cand.state != StateActive || cand.allocated <= cand.MinFrame {
			// "The global frame manager reclaims page frames from
			// specific applications with more pages than their
			// minimal request only."
			continue
		}
		// Keep invoking the victim's ReclaimFrame event "until the
		// request is satisfied" or it stops yielding frames or hits its
		// guaranteed minimum.
		for recovered < want && cand.state == StateActive && cand.allocated > cand.MinFrame {
			before := fm.specificTotal
			if _, err := fm.kernel.Executor.Run(cand, EventReclaimFrame); err != nil {
				break // the run terminated the container; move on
			}
			got := before - fm.specificTotal
			if got <= 0 {
				break
			}
			recovered += got
			fm.emit(kevent.Event{Type: kevent.EvFMReclaimNormal, Container: int32(cand.ID), Arg: int64(got)})
		}
	}
	return recovered
}

// reclaimForced steals the oldest-allocated frames ("all the allocated page
// frames of all specific applications are linked in the sequence of the
// time of allocation") from containers above their minimum.
//
//hipec:hotpath
func (fm *FrameManager) reclaimForced(want int, skip *Container) int {
	// Claim the candidate scratch for this pass (nested passes allocate
	// privately), reusing its backing array across reclaim rounds.
	cands := fm.forcedScratch
	fm.forcedScratch = nil
	cands = cands[:0]
	for _, c := range fm.containers {
		if c == skip || c.state != StateActive {
			continue
		}
		budget := c.allocated - c.MinFrame
		if budget <= 0 {
			continue
		}
		for _, q := range c.queues() {
			for p := q.Head(); p != nil; p = p.Next() {
				if !p.Wired {
					cands = append(cands, forcedCand{c, p})
				}
			}
		}
	}
	slices.SortStableFunc(cands, func(a, b forcedCand) int { return cmp.Compare(a.p.AllocSeq, b.p.AllocSeq) })
	taken := 0
	for _, cd := range cands {
		if taken >= want {
			break
		}
		if cd.c.allocated-cd.c.MinFrame <= 0 {
			continue // never strip a container below its guarantee
		}
		if cd.p.Queue() == nil {
			continue // already moved by an earlier step
		}
		q := cd.p.Queue()
		q.Remove(cd.p)
		if err := fm.retire(cd.c, cd.p); err != nil {
			// Laundering failed; the dirty page must stay with its
			// container, so put it back where it was.
			q.EnqueueTail(cd.p)
			continue
		}
		fm.Daemon.ReturnFrame(cd.p)
		cd.c.allocated--
		fm.specificTotal--
		taken++
		fm.emit(kevent.Event{Type: kevent.EvFMReclaimForced, Container: int32(cd.c.ID), Arg: int64(cd.p.Object), Aux: cd.p.Offset})
	}
	// Hand the scratch back for the next round (single exit: no defer, so
	// the function stays closure-free on the hot path).
	clear(cands)
	fm.forcedScratch = cands[:0]
	return taken
}

// BalanceSpecific enforces the partition_burst watermark: when the total
// granted to specific applications exceeds it, frames are deallocated from
// containers holding more than minFrame.
func (fm *FrameManager) BalanceSpecific() {
	over := fm.specificTotal - fm.PartitionBurst
	if over > 0 {
		fm.reclaim(over, nil)
	}
}

// Migrate moves a frame from container src to the container with the given
// ID (§6 future work #1: "migrating physical frames between the relevant
// jobs"). The page is retired first; it arrives on dst's private free list.
func (fm *FrameManager) Migrate(src *Container, dstID int, p *mem.Page) error {
	var dst *Container
	for _, c := range fm.containers {
		if c.ID == dstID {
			dst = c
			break
		}
	}
	if dst == nil || dst.state != StateActive {
		return fmt.Errorf("migrate target container %d not active: %w", dstID, hiperr.ErrPolicyFault)
	}
	if dst == src {
		return fmt.Errorf("migrate to self: %w", hiperr.ErrPolicyFault)
	}
	if q := p.Queue(); q != nil {
		q.Remove(p)
	}
	if err := fm.retire(src, p); err != nil {
		return err
	}
	dst.Free.EnqueueTail(p)
	src.allocated--
	dst.allocated++
	fm.emit(kevent.Event{Type: kevent.EvPolicyMigrate, Container: int32(dst.ID), Arg: int64(src.ID)})
	return nil
}
