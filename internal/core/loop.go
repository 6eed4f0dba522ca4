package core

import "errors"

// ErrLoopClosed is returned by Loop.Call after Close.
var ErrLoopClosed = errors.New("core: kernel loop closed")

// Loop makes a kernel safe for concurrent callers without putting a single
// lock inside the engine: an actor-style serialized command loop. The
// kernel stays a single-writer structure — exactly the discipline the
// simulation gets for free from its one virtual clock — and concurrency
// lives entirely at this boundary: callers enqueue closures into a mailbox,
// one engine goroutine applies them in arrival order. This is the same
// shape as the sharded scale harness (bench.RunSharded), with the shard
// count fixed at one and the workload arriving live instead of replayed.
//
// The mailbox is the only way work reaches the kernel: a realtime kernel
// arms no timers (they are sim-only), so nothing ever touches it from
// another goroutine.
type Loop struct {
	k    *Kernel
	mbox chan func()
	done chan struct{} // closed when the engine goroutine has exited
	// sess backs the loop's typed client methods (Open/WritePage/...);
	// touched only from closures running on the engine goroutine.
	sess *CacheSession
}

// DefaultMailboxDepth bounds how many commands may queue before senders
// block — enough to absorb bursts, small enough to apply backpressure
// instead of hiding latency in an unbounded queue.
const DefaultMailboxDepth = 128

// NewLoop starts the engine goroutine for k. The kernel must not be touched
// directly (outside Call/Async closures) from then on.
func NewLoop(k *Kernel) *Loop {
	l := &Loop{
		k:    k,
		mbox: make(chan func(), DefaultMailboxDepth),
		done: make(chan struct{}),
		sess: NewCacheSession(),
	}
	go l.run()
	return l
}

// run is the engine goroutine: apply mailbox closures in order until one of
// them (enqueued by Close) reports stop.
func (l *Loop) run() {
	defer close(l.done)
	for fn := range l.mbox {
		if fn == nil { // Close's stop sentinel
			return
		}
		fn()
	}
}

// Call runs fn on the engine goroutine and returns its error. It blocks
// until fn has run (or the loop closes first, returning ErrLoopClosed).
func (l *Loop) Call(fn func(k *Kernel) error) error {
	select {
	case <-l.done: // engine already gone; don't park fn in a dead mailbox
		return ErrLoopClosed
	default:
	}
	errc := make(chan error, 1)
	select {
	case l.mbox <- func() { errc <- fn(l.k) }:
	case <-l.done:
		return ErrLoopClosed
	}
	select {
	case err := <-errc:
		return err
	case <-l.done:
		// The loop shut down while fn was queued; it may still have been
		// the last closure applied before the sentinel.
		select {
		case err := <-errc:
			return err
		default:
			return ErrLoopClosed
		}
	}
}

// Async enqueues fn without waiting for it to run. It reports false after
// Close. True means "enqueued", not "will run": if Close wins the race and
// its stop sentinel lands ahead of fn in the mailbox, fn is discarded
// without running. Callers that must know their command applied use Call.
func (l *Loop) Async(fn func(k *Kernel)) bool {
	select {
	case <-l.done:
		return false
	default:
	}
	select {
	case l.mbox <- func() { fn(l.k) }:
		return true
	case <-l.done:
		return false
	}
}

// Close stops the engine goroutine after the commands already enqueued have
// been applied and waits for it to exit. Idempotent; concurrent Calls that
// lose the race return ErrLoopClosed. Once Close returns the kernel is the
// closer's again.
func (l *Loop) Close() {
	select {
	case <-l.done:
		return
	default:
	}
	select {
	case l.mbox <- nil:
	case <-l.done:
		return
	}
	<-l.done
}
