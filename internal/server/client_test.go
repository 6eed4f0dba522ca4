package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hipec/internal/wire"
)

var errInjected = errors.New("injected write failure")

// countingConn counts the client's Write calls — one per write syscall on
// a TCP connection — and, with failAfter > 0, fails every Write after the
// first failAfter without sending anything.
type countingConn struct {
	net.Conn
	failAfter int64

	writes    atomic.Int64
	failedLen atomic.Int64 // bytes offered to the first failed Write
}

func (c *countingConn) Write(b []byte) (int, error) {
	if n := c.writes.Add(1); c.failAfter > 0 && n > c.failAfter {
		if n == c.failAfter+1 {
			c.failedLen.Store(int64(len(b)))
		}
		return 0, errInjected
	}
	return c.Conn.Write(b)
}

// dialCounting connects a client to addr through a countingConn.
func dialCounting(t *testing.T, addr string, failAfter int64) (*Client, *countingConn) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cc := &countingConn{Conn: raw, failAfter: failAfter}
	c, err := newClient(cc)
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	return c, cc
}

// TestClientCoalescesWrites: pipelined callers on one P share write
// syscalls, and sharing them keeps each page's reads after its writes.
func TestClientCoalescesWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, addr := newTestServer(t, WithFrames(256))
	c, cc := dialCounting(t, addr, 0)
	defer c.Close()

	const (
		callers = 8
		calls   = 500 // per caller, alternating write and read
		owned   = 8   // pages per caller
	)
	r, err := c.Open(callers * owned)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	before := cc.writes.Load()

	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Caller g owns pages g, g+callers, ...; last[i] is the
			// version of its i-th page that the server acknowledged.
			var last [owned]uint32
			out := make([]byte, testPageSize)
			in := make([]byte, testPageSize)
			for i := 0; i < calls; i++ {
				slot := i / 2 % owned
				page := g + callers*slot
				if i%2 == 0 {
					version := uint32(i + 1)
					stampPage(out, page, version)
					if err := c.WritePage(r, page, out); err != nil {
						errc <- fmt.Errorf("caller %d: write page %d: %v", g, page, err)
						return
					}
					last[slot] = version
					continue
				}
				n, err := c.ReadPage(r, page, in)
				if err != nil {
					errc <- fmt.Errorf("caller %d: read page %d: %v", g, page, err)
					return
				}
				stampPage(out, page, last[slot])
				if n != testPageSize || !bytes.Equal(in, out) {
					errc <- fmt.Errorf("caller %d: page %d does not hold version %d (got version %d)",
						g, page, last[slot], binary.LittleEndian.Uint32(in[4:]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	requests := int64(callers * calls)
	writes := cc.writes.Load() - before
	t.Logf("%d requests in %d write calls (%.3f writes per request)", requests, writes, float64(writes)/float64(requests))
	if writes > requests/2 {
		t.Fatalf("%d requests took %d write calls, want at most %d: frames are not coalescing", requests, writes, requests/2)
	}
	if n := c.unclaimed.Load(); n != 0 {
		t.Fatalf("%d replies still counted unclaimed after every caller returned", n)
	}
}

// TestCoalescingIdleWithLoneCaller: a lone caller has no one to wait for,
// so after each of its calls no reply may stay counted as unclaimed — or
// its next send would yield for nothing. Error replies and discarded
// TouchAsync replies must settle too.
func TestCoalescingIdleWithLoneCaller(t *testing.T) {
	_, addr := newTestServer(t, WithFrames(64))
	c, _ := dialCounting(t, addr, 0)
	defer c.Close()

	check := func(what string) {
		t.Helper()
		if n := c.unclaimed.Load(); n != 0 {
			t.Fatalf("after %s: %d replies counted unclaimed, want 0", what, n)
		}
	}
	check("hello")
	r, err := c.Open(4)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	check("open")
	if err := c.WritePage(r, 1, []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	check("write")
	if _, err := c.ReadPage(r+100, 0, make([]byte, 8)); err == nil {
		t.Fatal("read of an unknown region succeeded")
	}
	check("error reply")
	if !c.TouchAsync(r, 2) {
		t.Fatal("TouchAsync refused")
	}
	// Replies come back in order: once Stats returns, the touch's
	// discarded reply has been handled.
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats: %v", err)
	}
	check("discarded reply")
}

// stampPage fills buf with a pattern unique to (page, version).
func stampPage(buf []byte, page int, version uint32) {
	binary.LittleEndian.PutUint32(buf, uint32(page))
	binary.LittleEndian.PutUint32(buf[4:], version)
	for i := 8; i < len(buf); i++ {
		buf[i] = byte(i) ^ byte(page) ^ byte(version)
	}
}

// TestClientFlushFailFailsEveryWaiter: when a coalesced write fails, every
// caller — the flusher and the callers whose frames rode its write — gets
// the client's sticky error; none hangs, and Close still leaves no reader
// behind.
func TestClientFlushFailFailsEveryWaiter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, addr := newTestServer(t)

	t.Run("free-running", func(t *testing.T) {
		c, cc := dialCounting(t, addr, 20)
		r, err := c.Open(4)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		const callers = 8
		errc := make(chan error, callers)
		for g := 0; g < callers; g++ {
			go func(g int) {
				for {
					if err := c.TouchPage(r, g%4); err != nil {
						errc <- err
						return
					}
				}
			}(g)
		}
		expectStickyFailures(t, c, errc, callers)
		frame := int64(len(wire.AppendTouch(nil, 0, 0, 0)))
		t.Logf("the failed write carried %d frames", cc.failedLen.Load()/frame)
		closeAndCheckReader(t, c)
	})

	// Deterministic riders: hold the flusher's claim while the callers
	// append, then fail the one write that carries all their frames.
	t.Run("riders", func(t *testing.T) {
		c, cc := dialCounting(t, addr, 2) // hello and open succeed
		r, err := c.Open(4)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		c.wmu.Lock()
		c.flushing = true
		c.wmu.Unlock()
		const callers = 8
		errc := make(chan error, callers)
		for g := 0; g < callers; g++ {
			go func(g int) { errc <- c.TouchPage(r, g%4) }(g)
		}
		frame := len(wire.AppendTouch(nil, 0, 0, 0))
		deadline := time.Now().Add(10 * time.Second)
		for {
			c.wmu.Lock()
			queued := len(c.wbuf) / frame
			c.wmu.Unlock()
			if queued == callers {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d frames queued behind the claimed flush", queued, callers)
			}
			time.Sleep(time.Millisecond)
		}
		if err := c.flush(); !errors.Is(err, errInjected) {
			t.Fatalf("flush: got %v, want the injected failure", err)
		}
		if got := cc.failedLen.Load(); got != int64(callers*frame) {
			t.Fatalf("the failed write carried %d bytes, want %d frames of %d", got, callers, frame)
		}
		expectStickyFailures(t, c, errc, callers)
		closeAndCheckReader(t, c)
	})
}

// expectStickyFailures waits for n errors on errc, each of which must be
// the client's sticky error wrapping the injected failure.
func expectStickyFailures(t *testing.T, c *Client, errc <-chan error, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if err == nil {
				t.Fatalf("caller %d returned no error from a failed write", i)
			}
			if !errors.Is(err, errInjected) || !errors.Is(err, c.stickyErr()) {
				t.Fatalf("caller error %v, want the sticky error %v", err, c.stickyErr())
			}
		case <-deadline:
			t.Fatalf("%d of %d callers still waiting after the failed write", n-i, n)
		}
	}
}

// closeAndCheckReader closes c within a deadline and asserts that no reply
// reader is left running.
func closeAndCheckReader(t *testing.T, c *Client) {
	t.Helper()
	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after a failed write")
	}
	buf := make([]byte, 1<<20)
	if stacks := buf[:runtime.Stack(buf, true)]; bytes.Contains(stacks, []byte("(*Client).readLoop")) {
		t.Fatalf("a reply reader outlived Client.Close:\n%s", stacks)
	}
}
