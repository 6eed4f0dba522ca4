package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hipec"
	"hipec/internal/core"
	"hipec/internal/server"
	"hipec/internal/store"
)

// netShape sizes a network workload. Every connection opens one region of
// regionPages pages under FIFO with second chance with a pool of pool
// frames, and keeps depth requests in flight (closed loop).
type netShape struct {
	regionPages int
	pool        int
	payload     int     // bytes per read and write
	writeFrac   float64 // share of requests that are writes
	zipfS       float64 // page skew; 0 = uniform
	depth       int
}

// netEnv is one served cache and its clients, built the way hipec.Serve
// builds it and dialled over loopback.
type netEnv struct {
	shape   netShape
	backend store.Backend
	path    string
	srv     *server.Server
	serving sync.WaitGroup // Server.Serve, when the listener is tapped

	clients []*server.Client
	regions []core.RegionID
	// versions[c][p] is the last acknowledged write version of page p of
	// connection c's region. Slots own disjoint pages, so no two goroutines
	// touch one element.
	versions [][]uint64

	// Set only in a traced set-up.
	storeTap *storeTap
	connTap  *connTap
}

// setupNet opens the file store, starts the server, dials conns clients,
// opens one policy-managed region per client (the server translates and
// verifies the HPL) and stamps every page once. traced wraps the store and
// the listener.
func setupNet(dir string, sh netShape, conns int, traced bool) (*netEnv, error) {
	e := &netEnv{shape: sh, path: filepath.Join(dir, "pages.dat")}
	b, err := store.Open("file", e.path, pageSize)
	if err != nil {
		return nil, err
	}
	e.backend = b
	var st hipec.Store = b
	if traced {
		e.storeTap = newStoreTap(b)
		st = e.storeTap
	}
	e.srv = server.New(st)
	if traced {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.connTap = newConnTap(e.srv.Loop())
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			_ = e.srv.Serve(&tapListener{Listener: ln, tap: e.connTap}) // returns when Close closes the listener
		}()
		err = e.dialAndOpen(ln.Addr().String(), conns)
		if err != nil {
			e.close()
			return nil, err
		}
	} else {
		if err := e.srv.ListenAndServe("127.0.0.1:0"); err != nil {
			e.close()
			return nil, err
		}
		if err := e.dialAndOpen(e.srv.Addr().String(), conns); err != nil {
			e.close()
			return nil, err
		}
	}
	if err := e.stampAll(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *netEnv) dialAndOpen(addr string, conns int) error {
	policy := hipec.PolicyFIFOSecondChanceSource(e.shape.pool)
	for c := 0; c < conns; c++ {
		cl, err := server.Dial(addr)
		if err != nil {
			return err
		}
		e.clients = append(e.clients, cl)
		r, err := cl.Open(e.shape.regionPages, hipec.WithPolicySource("fifo2", policy))
		if err != nil {
			return fmt.Errorf("open region on connection %d: %w", c, err)
		}
		e.regions = append(e.regions, r)
		e.versions = append(e.versions, make([]uint64, e.shape.regionPages))
	}
	return nil
}

// stampAll writes version 1 of every page of every region, depth requests
// in flight per connection.
func (e *netEnv) stampAll() error {
	var wg sync.WaitGroup
	errs := make(chan error, len(e.clients)*e.shape.depth)
	for c := range e.clients {
		for s := 0; s < e.shape.depth; s++ {
			wg.Add(1)
			go func(c, s int) {
				defer wg.Done()
				buf := make([]byte, e.shape.payload)
				for p := s; p < e.shape.regionPages; p += e.shape.depth {
					stamp(buf, c, p, 1)
					if err := e.clients[c].WritePage(e.regions[c], p, buf); err != nil {
						errs <- fmt.Errorf("stamp page %d of connection %d: %w", p, c, err)
						return
					}
					e.versions[c][p] = 1
				}
			}(c, s)
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// close tears everything down and waits for every goroutine it started.
func (e *netEnv) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	e.serving.Wait()
	if e.backend != nil {
		e.backend.Close()
		os.Remove(e.path)
	}
}

// loadRes is what the slots measured over one phase.
type loadRes struct {
	attempted     atomic.Int64
	failed        atomic.Int64 // requests that errored or were refused
	mismatches    atomic.Int64 // reads whose payload was not the last acknowledged write
	firstMismatch atomic.Value // string

	mu            sync.Mutex
	reads, writes *recorder // latency from send to reply, whole phase
	start         time.Time // set by run
	slices        []*slice  // consecutive stretches of the phase from start
}

// newLoadRes measures a phase; with slices > 0 it also splits its first
// slices*width into slices.
func newLoadRes(slices int, width time.Duration) *loadRes {
	r := &loadRes{reads: newRecorder(), writes: newRecorder()}
	for i := 0; i < slices; i++ {
		r.slices = append(r.slices, newSlice(width))
	}
	return r
}

// add records one completed request that took lat and ended at end.
func (r *loadRes) add(write bool, end time.Time, lat time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	whole := r.reads
	if write {
		whole = r.writes
	}
	whole.add(lat)
	if len(r.slices) == 0 {
		return
	}
	i := int(end.Sub(r.start) / r.slices[0].width)
	if i >= len(r.slices) {
		return // the tail after the deadline
	}
	sl := r.slices[i]
	sl.ops++
	if write {
		sl.writes.add(lat)
	} else {
		sl.reads.add(lat)
	}
}

// slot is one in-flight request position of one connection.
type slot struct {
	conn      int
	gen       *opGen
	buf, want []byte
}

func (e *netEnv) newSlots(seed int64) []*slot {
	var slots []*slot
	for c := range e.clients {
		for s := 0; s < e.shape.depth; s++ {
			slots = append(slots, &slot{
				conn: c,
				gen:  newOpGen(seed, c, s, e.shape.depth, e.shape.regionPages, e.shape.zipfS, e.shape.writeFrac),
				buf:  make([]byte, e.shape.payload),
				want: make([]byte, e.shape.payload),
			})
		}
	}
	return slots
}

// run drives every slot in a closed loop until d has passed, recording
// into res, and returns the wall time from start until the last slot's
// last reply.
func (e *netEnv) run(slots []*slot, d time.Duration, res *loadRes) time.Duration {
	start := time.Now()
	res.start = start
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, s := range slots {
		wg.Add(1)
		go func(s *slot) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				e.do(s, res)
			}
		}(s)
	}
	wg.Wait()
	return time.Since(start)
}

// do issues one request and waits for its reply. A read is checked byte
// for byte against the stamp of the page's last acknowledged write.
func (e *netEnv) do(s *slot, res *loadRes) {
	o := s.gen.next()
	cl, r := e.clients[s.conn], e.regions[s.conn]
	res.attempted.Add(1)
	if o.write {
		v := e.versions[s.conn][o.page] + 1
		stamp(s.buf, s.conn, o.page, v)
		t0 := time.Now()
		err := cl.WritePage(r, o.page, s.buf)
		end := time.Now()
		if err != nil {
			res.failed.Add(1)
			return
		}
		e.versions[s.conn][o.page] = v
		res.add(true, end, end.Sub(t0))
		return
	}
	t0 := time.Now()
	n, err := cl.ReadPage(r, o.page, s.buf)
	end := time.Now()
	if err != nil {
		res.failed.Add(1)
		return
	}
	res.add(false, end, end.Sub(t0))
	v := e.versions[s.conn][o.page]
	stamp(s.want, s.conn, o.page, v)
	if n != len(s.buf) || !bytes.Equal(s.buf, s.want) {
		if res.mismatches.Add(1) == 1 {
			res.firstMismatch.Store(fmt.Sprintf("connection %d page %d: %d bytes read, not version %d's stamp",
				s.conn, o.page, n, v))
		}
	}
}
