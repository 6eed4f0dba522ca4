package main

// The traced run measures each layer from outside, by wrapping what the
// program is handed: the store given to server.New and the listener given
// to Server.Serve, which also probes the server's loop. The untraced run
// uses none of them.

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hipec/internal/core"
	"hipec/internal/store"
	"hipec/internal/substrate"
	"hipec/internal/wire"
)

// storeTap times every page transfer through a store. The kernel calls it
// only from its loop goroutine; counters are atomic so a snapshot may be
// read from elsewhere.
type storeTap struct {
	substrate.Store
	recording atomic.Bool
	reads     atomic.Int64
	writes    atomic.Int64
	busy      atomic.Int64 // ns spent in ReadPage and WritePage while recording
	readLat   *lockedRecorder
	writeLat  *lockedRecorder
}

func newStoreTap(s substrate.Store) *storeTap {
	return &storeTap{Store: s, readLat: newLockedRecorder(), writeLat: newLockedRecorder()}
}

func (t *storeTap) ReadPage(key substrate.PageKey) ([]byte, bool, error) {
	t0 := time.Now()
	data, ok, err := t.Store.ReadPage(key)
	d := time.Since(t0)
	t.reads.Add(1)
	if t.recording.Load() {
		t.busy.Add(int64(d))
		t.readLat.add(d)
	}
	return data, ok, err
}

func (t *storeTap) WritePage(key substrate.PageKey, data []byte) error {
	t0 := time.Now()
	err := t.Store.WritePage(key, data)
	d := time.Since(t0)
	t.writes.Add(1)
	if t.recording.Load() {
		t.busy.Add(int64(d))
		t.writeLat.add(d)
	}
	return err
}

// DeletePage forwards to the wrapped store's substrate.Deleter, if any.
func (t *storeTap) DeletePage(key substrate.PageKey) bool {
	if d, ok := t.Store.(substrate.Deleter); ok {
		return d.DeletePage(key)
	}
	return false
}

// Sync forwards to the wrapped store's store.Syncer, if any.
func (t *storeTap) Sync() error {
	if s, ok := t.Store.(store.Syncer); ok {
		return s.Sync()
	}
	return nil
}

// StoreIO forwards to the wrapped store's store.IOStats, if any.
func (t *storeTap) StoreIO() (reads, writes int64) {
	if s, ok := t.Store.(store.IOStats); ok {
		return s.StoreIO()
	}
	return 0, 0
}

// frameScanner reassembles wire frames from a byte stream cut at arbitrary
// points, as a connection's Read and Write calls cut it.
type frameScanner struct {
	acc     []byte
	scratch []byte
}

// feed appends p and calls fn with the payload of every frame it
// completes.
func (s *frameScanner) feed(p []byte, fn func(payload []byte)) {
	s.acc = append(s.acc, p...)
	r := bytes.NewReader(s.acc)
	used := 0
	for {
		frame, err := wire.ReadFrame(r, s.scratch)
		if err != nil {
			break // incomplete frame: wait for more bytes
		}
		s.scratch = frame[:0]
		used = len(s.acc) - r.Len()
		fn(frame)
	}
	s.acc = s.acc[:copy(s.acc, s.acc[used:])]
}

// connTap is the server side of every accepted connection: it decodes the
// requests the server reads and the replies it writes, and matches them by
// seq to time each request's residence in the server.
//
// It also probes the server's loop. At most once per probeInterval, when a
// read brings in requests, it runs a no-op through Loop().Call before the
// server sees them, and records how long the no-op waited before the loop
// ran it: the backlog those requests find ahead of them. A probe on its own
// clock would land mostly inside the longest batches and overstate the
// wait, and one on its own goroutine could queue behind the very requests
// it arrived with. The wait ends when the no-op starts, not when the
// reader wakes after it: that wake-up is scheduling, not loop queueing.
type connTap struct {
	recording atomic.Bool
	loop      *core.Loop

	mu         sync.Mutex
	reads      int64 // Read calls that returned bytes
	writes     int64 // Write calls
	replies    int64 // reply frames written
	reqBytes   int64
	respBytes  int64
	residence  *recorder
	loopWait   *recorder
	lastProbe  time.Time
	unexpected int64 // replies with no pending request, or undecodable frames
}

func newConnTap(loop *core.Loop) *connTap {
	return &connTap{loop: loop, residence: newRecorder(), loopWait: newRecorder()}
}

// probe times one no-op through the loop.
func (t *connTap) probe() {
	var waited time.Duration
	t0 := time.Now()
	if t.loop.Call(func(*core.Kernel) error { waited = time.Since(t0); return nil }) != nil {
		return // closing
	}
	t.mu.Lock()
	t.loopWait.add(waited)
	t.mu.Unlock()
}

type connTapCounts struct {
	reads, writes, replies, reqBytes, respBytes int64
}

func (t *connTap) snapshot() connTapCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return connTapCounts{t.reads, t.writes, t.replies, t.reqBytes, t.respBytes}
}

// tapListener hands the server tapped connections.
type tapListener struct {
	net.Listener
	tap *connTap
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: l.tap, arrived: make(map[uint32]time.Time)}, nil
}

type tapConn struct {
	net.Conn
	tap     *connTap
	in, out frameScanner         // in: only the server's reader; out: only its writer
	mu      sync.Mutex           // guards arrived
	arrived map[uint32]time.Time // seq -> when its last byte was read
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		rec := c.tap.recording.Load()
		reqs := 0
		c.in.feed(p[:n], func(payload []byte) {
			req, derr := wire.DecodeRequest(payload)
			if derr != nil {
				c.tap.noteUnexpected()
				return
			}
			reqs++
			c.mu.Lock()
			c.arrived[req.Seq] = now
			c.mu.Unlock()
		})
		if rec {
			c.tap.mu.Lock()
			c.tap.reads++
			c.tap.reqBytes += int64(n)
			due := reqs > 0 && now.Sub(c.tap.lastProbe) >= probeInterval
			if due {
				c.tap.lastProbe = now
			}
			c.tap.mu.Unlock()
			if due {
				c.tap.probe()
			}
		}
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := time.Now()
	rec := c.tap.recording.Load()
	c.tap.mu.Lock()
	defer c.tap.mu.Unlock()
	c.out.feed(p[:n], func(payload []byte) {
		resp, derr := wire.DecodeResponse(payload)
		c.mu.Lock()
		t0, ok := c.arrived[resp.Seq]
		delete(c.arrived, resp.Seq)
		c.mu.Unlock()
		if derr != nil || !ok {
			c.tap.unexpected++
			return
		}
		if rec {
			c.tap.replies++
			c.tap.residence.add(now.Sub(t0))
		}
	})
	if rec {
		c.tap.writes++
		c.tap.respBytes += int64(n)
	}
	return n, err
}

func (t *connTap) noteUnexpected() {
	t.mu.Lock()
	t.unexpected++
	t.mu.Unlock()
}
