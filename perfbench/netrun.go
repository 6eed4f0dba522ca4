package main

import (
	"fmt"
	"runtime"
	"time"

	"hipec"
	"hipec/internal/core"
)

// netSnap is the state read at a window boundary, while no request is in
// flight.
type netSnap struct {
	stats                   core.CacheStats
	storeReads, storeWrites int64
	storeBusy               time.Duration
	conn                    connTapCounts
	mem                     runtime.MemStats
}

// netWindow is one measured window of a network workload.
type netWindow struct {
	setup         []float64 // seconds, the mean of one set-up on each CPU
	warm, load    *loadRes
	elapsed       time.Duration
	before, after netSnap
	env           *netEnv
}

func (w *netWindow) completed() int64 { return w.load.attempted.Load() - w.load.failed.Load() }

// snap reads the window-boundary state. Client.Stats and the store tap are
// read on either side of each other until Stats repeats, so both describe
// the same instant of the kernel.
func (e *netEnv) snap() (netSnap, error) {
	var s netSnap
	for try := 0; ; try++ {
		s1, err := e.clients[0].Stats()
		if err != nil {
			return s, err
		}
		if e.storeTap != nil {
			s.storeReads, s.storeWrites = e.storeTap.reads.Load(), e.storeTap.writes.Load()
			s.storeBusy = time.Duration(e.storeTap.busy.Load())
		}
		s2, err := e.clients[0].Stats()
		if err != nil {
			return s, err
		}
		if s1 == s2 {
			s.stats = s1
			break
		}
		if try == 100 {
			return s, fmt.Errorf("kernel counters still moving with no request in flight")
		}
	}
	if e.connTap != nil {
		s.conn = e.connTap.snapshot()
		runtime.ReadMemStats(&s.mem)
	}
	return s, nil
}

// measureNet sets the workload up at least reps times and for at least
// minSetup (keeping the last), warms it up, then measures one window. The
// set-ups take turns on the CPUs, and the process moves to the next CPU
// every sliceWidth/cfg.cpus.n(), so each slice runs on every CPU alike.
func measureNet(cfg config, sh netShape, traced bool, reps int, minSetup, window time.Duration) (*netWindow, error) {
	slices := 0
	if !traced {
		slices = int(window / sliceWidth)
	}
	w := &netWindow{warm: newLoadRes(0, 0), load: newLoadRes(slices, sliceWidth)}
	var env *netEnv
	n := cfg.cpus.n()
	var setups []float64
	for start := time.Now(); len(setups) < reps || time.Since(start) < minSetup || len(setups)%n != 0; {
		if env != nil {
			env.close()
			// Collect the discarded set-up, so its garbage neither lands
			// in the next set-up's time nor raises rss_peak_mb.
			runtime.GC()
		}
		if err := cfg.cpus.turn(len(setups)); err != nil {
			return nil, err
		}
		t0 := time.Now()
		e, err := setupNet(cfg.dir, sh, conns, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()
	w.env = env
	w.setup = groupMeans(setups, n)
	defer cfg.cpus.rotate(sliceWidth / time.Duration(n))()

	slots := env.newSlots(cfg.seed)
	env.run(slots, warmup(window), w.warm)

	var err error
	if w.before, err = env.snap(); err != nil {
		return nil, err
	}
	if traced {
		env.storeTap.recording.Store(true)
		env.connTap.recording.Store(true)
	}
	w.elapsed = env.run(slots, window, w.load)
	if traced {
		env.storeTap.recording.Store(false)
		env.connTap.recording.Store(false)
	}
	if w.after, err = env.snap(); err != nil {
		return nil, err
	}
	return w, nil
}

// sliceWidth is the length of one slice of an untraced window.
const sliceWidth = time.Second

// probeInterval paces the loop-wait probe (see connTap): at most about 200
// samples a second, few enough that the probe itself barely disturbs the
// loop.
const probeInterval = 5 * time.Millisecond

// checkNet holds a window to the correctness gate: every read returned the
// last acknowledged write, and the kernel's counters add up over the
// window.
func checkNet(rep *report, w *netWindow) {
	for _, lr := range []*loadRes{w.warm, w.load} {
		if n := lr.mismatches.Load(); n > 0 {
			rep.fail("%d reads returned the wrong payload; first: %v", n, lr.firstMismatch.Load())
		}
	}
	if n := w.warm.failed.Load(); n > 0 {
		rep.fail("%d requests failed during warm-up", n)
	}
	d := statsDelta(w.before.stats, w.after.stats)
	if d.Accesses != d.Hits+d.Faults {
		rep.fail("accesses %d != hits %d + faults %d", d.Accesses, d.Hits, d.Faults)
	}
	if d.Faults != d.PageIns+d.ZeroFills {
		rep.fail("faults %d != page-ins %d + zero-fills %d", d.Faults, d.PageIns, d.ZeroFills)
	}
	if n := w.load.attempted.Load(); d.Accesses != n {
		rep.fail("accesses %d != requests completed %d", d.Accesses, n)
	}
	if w.env.storeTap != nil {
		if r := w.after.storeReads - w.before.storeReads; r != d.PageIns {
			rep.fail("store reads %d != page-ins %d", r, d.PageIns)
		}
		if wr := w.after.storeWrites - w.before.storeWrites; wr != d.PageOuts {
			rep.fail("store writes %d != page-outs %d", wr, d.PageOuts)
		}
		w.env.connTap.mu.Lock()
		if n := w.env.connTap.unexpected; n > 0 {
			rep.fail("%d server frames could not be matched by seq", n)
		}
		w.env.connTap.mu.Unlock()
	}
}

func statsDelta(a, b core.CacheStats) core.CacheStats {
	return core.CacheStats{
		Accesses: b.Accesses - a.Accesses, Hits: b.Hits - a.Hits, Faults: b.Faults - a.Faults,
		PageIns: b.PageIns - a.PageIns, ZeroFills: b.ZeroFills - a.ZeroFills,
		PageOuts: b.PageOuts - a.PageOuts, Evictions: b.Evictions - a.Evictions,
	}
}

func runNet(cfg config, sh netShape, rep *report) error {
	skew := "uniform"
	if sh.zipfS > 0 {
		skew = fmt.Sprintf("zipf(%v)", sh.zipfS)
	}
	rep.header = append(rep.header, fmt.Sprintf(
		"shape: %d connections x %d in flight (closed loop); region %d pages, pool %d frames per connection; %d-byte payloads, %.0f%% writes, %s pages; file store",
		conns, sh.depth, sh.regionPages, sh.pool, sh.payload, 100*sh.writeFrac, skew))
	if !cfg.traced {
		w, err := measureNet(cfg, sh, false, setupReps, setupMin, cfg.window)
		if err != nil {
			return err
		}
		checkNet(rep, w)
		reportNetE2E(rep, w)
		return nil
	}
	plain, err := measureNet(cfg, sh, false, 1, 0, cfg.window/2)
	if err != nil {
		return err
	}
	checkNet(rep, plain)
	w, err := measureNet(cfg, sh, true, 1, 0, cfg.window/2)
	if err != nil {
		return err
	}
	checkNet(rep, w)
	rep.res.Attempted = plain.load.attempted.Load() + w.load.attempted.Load()
	rep.res.Failed = plain.load.failed.Load() + w.load.failed.Load()
	reportNetLayers(rep, sh, plain, w)
	return nil
}

func reportNetE2E(rep *report, w *netWindow) {
	rep.res.Attempted = w.load.attempted.Load()
	rep.res.Failed = w.load.failed.Load()
	rep.set(endToEnd, "setup_s", median(w.setup), fmt.Sprintf("(median of %d means of one set-up per CPU)", len(w.setup)))
	var figs []sliceFigures
	for _, sl := range w.load.slices {
		figs = append(figs, sl.figures())
	}
	reportSlices(rep, figs)
	rep.lines = append(rep.lines, fmt.Sprintf("  window: %d ops in %.3f s = %.0f op/s; fail_frac %.6f (%d/%d)",
		w.completed(), w.elapsed.Seconds(), float64(w.completed())/w.elapsed.Seconds(),
		float64(rep.res.Failed)/float64(rep.res.Attempted), rep.res.Failed, rep.res.Attempted))
}

// translateUS times the HPL translator on the workload's policy source.
func translateUS(pool int) (float64, error) {
	src := hipec.PolicyFIFOSecondChanceSource(pool)
	var us []float64
	for i := 0; i < 51; i++ {
		t0 := time.Now()
		if _, err := hipec.Translate("fifo2", src); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(us), nil
}

func reportNetLayers(rep *report, sh netShape, plain, w *netWindow) {
	ops := float64(w.completed())
	per := func(n int64) float64 { return float64(n) / ops }
	conn := connTapCounts{
		reads: w.after.conn.reads - w.before.conn.reads, writes: w.after.conn.writes - w.before.conn.writes,
		replies: w.after.conn.replies - w.before.conn.replies, reqBytes: w.after.conn.reqBytes - w.before.conn.reqBytes,
		respBytes: w.after.conn.respBytes - w.before.conn.respBytes,
	}
	rep.set(perLayer, "wire.req_bytes_per_op", per(conn.reqBytes), "")
	rep.set(perLayer, "wire.resp_bytes_per_op", per(conn.respBytes), "")
	rep.set(perLayer, "server.replies_per_write", float64(conn.replies)/float64(max(conn.writes, 1)), "")
	rep.set(perLayer, "server.conn_reads_per_op", per(conn.reads), "")
	rep.set(perLayer, "server.conn_writes_per_op", per(conn.writes), "")

	w.env.connTap.mu.Lock()
	res, probe := w.env.connTap.residence.summarize(), w.env.connTap.loopWait.summarize()
	w.env.connTap.mu.Unlock()
	rep.set(perLayer, "server.residence_us_p50", res.p50, pctNote(res))
	rep.set(perLayer, "server.residence_us_p99", res.p99, pctNote(res))

	rd, wr := w.load.reads.summarize(), w.load.writes.summarize() // no slot is running: no lock needed
	rtt := 0.0
	if n := rd.n + wr.n; n > 0 {
		rtt = (rd.meanUS*float64(rd.n) + wr.meanUS*float64(wr.n)) / float64(n)
	}
	storeBusy := w.after.storeBusy - w.before.storeBusy
	storeUS := float64(storeBusy) / float64(time.Microsecond) / ops
	transport := rtt - res.meanUS
	residual := res.meanUS - probe.meanUS - storeUS

	rep.set(perLayer, "client.rtt_us_mean", rtt, fmt.Sprintf("(n=%d)", rd.n+wr.n))
	rep.set(perLayer, "client.transport_us_per_op", transport, "")
	rep.set(perLayer, "core.loop_wait_us_p50", probe.p50, pctNote(probe))
	rep.set(perLayer, "core.loop_wait_us_p99", probe.p99, pctNote(probe))
	rep.set(perLayer, "server.residual_us_per_op", residual, "")

	sr, sw := w.after.storeReads-w.before.storeReads, w.after.storeWrites-w.before.storeWrites
	srd, swr := w.env.storeTap.readLat.summarize(), w.env.storeTap.writeLat.summarize()
	rep.set(perLayer, "store.reads_per_op", per(sr), "")
	rep.set(perLayer, "store.writes_per_op", per(sw), "")
	rep.set(perLayer, "store.us_per_op", storeUS, "")
	rep.set(perLayer, "store.read_us_p50", srd.p50, pctNote(srd))
	rep.set(perLayer, "store.read_us_p99", srd.p99, pctNote(srd))
	rep.set(perLayer, "store.write_us_p50", swr.p50, pctNote(swr))
	rep.set(perLayer, "store.write_us_p99", swr.p99, pctNote(swr))
	rep.set(perLayer, "store.busy_frac", storeBusy.Seconds()/w.elapsed.Seconds(), "")

	d := statsDelta(w.before.stats, w.after.stats)
	rep.set(perLayer, "vm.hit_ratio", float64(d.Hits)/float64(max(d.Accesses, 1)),
		fmt.Sprintf("(%d hits / %d accesses)", d.Hits, d.Accesses))
	rep.set(perLayer, "vm.faults_per_op", per(d.Faults), "")
	rep.set(perLayer, "vm.pageins_per_op", per(d.PageIns), "")
	rep.set(perLayer, "vm.pageouts_per_op", per(d.PageOuts), "")
	rep.set(perLayer, "vm.evictions_per_op", per(d.Evictions), "")
	for _, name := range []string{"vm.hit_ns", "vm.fault_ns", "vm.pageouts_per_fault", "core.commands_per_fault"} {
		rep.set(perLayer, name, 0, "(sim only)")
	}

	if tr, err := translateUS(sh.pool); err != nil {
		rep.fail("translate: %v", err)
	} else {
		rep.set(perLayer, "hpl.translate_us", tr, "(median of 51)")
	}
	rep.set(perLayer, "runtime.allocs_per_op", per(int64(w.after.mem.Mallocs-w.before.mem.Mallocs)), "")
	rep.set(perLayer, "runtime.gc_cycles_per_kop", 1000*per(int64(w.after.mem.NumGC-w.before.mem.NumGC)), "")
	plainOps := float64(plain.completed()) / plain.elapsed.Seconds()
	tracedOps := ops / w.elapsed.Seconds()
	rep.set(perLayer, "trace.overhead_frac", 1-tracedOps/plainOps,
		fmt.Sprintf("(untraced %.0f op/s, traced %.0f op/s)", plainOps, tracedOps))

	// The stage sum: the parts add to the mean round trip by construction;
	// what can fail is a negative part, which would mean the stages were
	// mismeasured.
	parts := []struct {
		name string
		us   float64
	}{{"transport", transport}, {"loop wait", probe.meanUS}, {"store", storeUS}, {"residual", residual}}
	line := fmt.Sprintf("stage sum: rtt %.2f us =", rtt)
	sum := 0.0
	for _, p := range parts {
		line += fmt.Sprintf(" %s %.2f us (%.1f%%)", p.name, p.us, 100*p.us/rtt)
		sum += p.us
		if p.us < 0 {
			rep.fail("stage %s is negative: %.3f us of a %.3f us round trip", p.name, p.us, rtt)
		}
	}
	if diff := sum - rtt; diff > 1e-6*rtt || diff < -1e-6*rtt {
		rep.fail("stages sum to %.3f us, round trip is %.3f us", sum, rtt)
	}
	rep.lines = append(rep.lines, line)
}
