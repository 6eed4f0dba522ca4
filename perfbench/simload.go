package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hipec"
	"hipec/internal/kevent"
	"hipec/internal/trace"
)

// simShape sizes the sim-faults workload: strs reference strings of refs
// references each over a region of pages pages under FIFO with second
// chance with a pool of pool frames, on a kernel of frames frames.
type simShape struct {
	frames, pages, pool, refs, strs int
	zipfS, writeFrac                float64
}

// simInput is one reference string and the counts hipecvm gives for it.
type simInput struct {
	ref  *trace.Trace
	want simCounts
}

// simCounts are the deterministic outcomes of one pass; cmd/hipecvm prints
// the same six figures for the same input.
type simCounts struct {
	accesses, faults, pageIns, pageOuts, commands int64
	elapsed                                       string // virtual, as time.Duration formats it
}

// faultSink counts the kernel events the traced run needs: it is handed to
// the kernel through Config.Sinks.
type faultSink struct {
	hits, faults, pageIns, pageOuts, evictions, activations, commands int64
}

func (s *faultSink) add(o *faultSink) {
	s.hits += o.hits
	s.faults += o.faults
	s.pageIns += o.pageIns
	s.pageOuts += o.pageOuts
	s.evictions += o.evictions
	s.activations += o.activations
	s.commands += o.commands
}

func (s *faultSink) Emit(e kevent.Event) {
	switch e.Type {
	case kevent.EvHit:
		s.hits++
	case kevent.EvFault:
		s.faults++
	case kevent.EvPageIn:
		s.pageIns++
	case kevent.EvPageOut:
		s.pageOuts++
	case kevent.EvEviction:
		s.evictions++
	case kevent.EvPolicyActivation:
		s.activations++
		s.commands += e.Arg
	}
}

// simPass is one fresh kernel driven through the whole reference string.
type simPass struct {
	setup  time.Duration // kernel, policy translation, region allocation
	run    time.Duration // the references alone
	counts simCounts
}

// simRecorders collect per-reference wall latency. hit and fault are
// filled only when a sink classifies each reference (traced run).
type simRecorders struct {
	reads, writes, hit, fault *recorder
}

func newSimRecorders() *simRecorders {
	return &simRecorders{reads: newRecorder(), writes: newRecorder(), hit: newRecorder(), fault: newRecorder()}
}

// sampleEvery spaces the references whose latency is timed. A clock read
// costs about as much as a resident hit, so timing every reference would
// mostly measure the clock; the untimed ones run back to back.
const sampleEvery = 8

// runSimPass builds a simulated kernel with calibrated costs and the disk
// model on, allocates the region under the policy, and replays ref through
// Touch and Write, timing every sampleEvery-th reference.
func runSimPass(sh simShape, ref *trace.Trace, sink *faultSink, rec *simRecorders) (simPass, error) {
	var pass simPass
	t0 := time.Now()
	cfg := hipec.Config{Frames: sh.frames, StartChecker: true}
	if sink != nil {
		cfg.Sinks = []hipec.Sink{sink}
	}
	k := hipec.New(cfg)
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, int64(sh.pages)*pageSize, hipec.WithPolicy(hipec.PolicyFIFOSecondChance(sh.pool)))
	if err != nil {
		return pass, err
	}
	pass.setup = time.Since(t0)

	vstart := k.Clock.Now()
	start := time.Now()
	for i, r := range ref.Records {
		addr := e.Start + r.Page*pageSize
		if i%sampleEvery != 0 {
			if r.Write {
				_, err = sp.Write(addr)
			} else {
				_, err = sp.Touch(addr)
			}
			if err != nil {
				return pass, fmt.Errorf("reference %d: %w", i, err)
			}
			continue
		}
		var f0 int64
		if sink != nil {
			f0 = sink.faults
		}
		t := time.Since(start)
		if r.Write {
			_, err = sp.Write(addr)
		} else {
			_, err = sp.Touch(addr)
		}
		d := time.Since(start) - t
		if err != nil {
			return pass, fmt.Errorf("reference %d: %w", i, err)
		}
		if r.Write {
			rec.writes.add(d)
		} else {
			rec.reads.add(d)
		}
		if sink != nil {
			if sink.faults != f0 {
				rec.fault.add(d)
			} else {
				rec.hit.add(d)
			}
		}
	}
	pass.run = time.Since(start)
	if c.State() != hipec.StateActive {
		return pass, fmt.Errorf("policy container %s: %s", c.State(), c.TerminationReason())
	}
	st := sp.Stats()
	pass.counts = simCounts{
		accesses: st.Accesses,
		faults:   st.Faults,
		pageIns:  st.PageIns,
		pageOuts: k.VM.Stats().PageOuts,
		commands: c.Stats().Commands,
		elapsed:  time.Duration(k.Clock.Now().Sub(vstart)).String(),
	}
	return pass, nil
}

// hipecvmCounts runs cmd/hipecvm over the same reference string, policy,
// pool and machine size, and parses the figures it prints.
func hipecvmCounts(bin, dir string, sh simShape, ref *trace.Trace) (simCounts, error) {
	path := filepath.Join(dir, "refs.trace")
	f, err := os.Create(path)
	if err != nil {
		return simCounts{}, err
	}
	_, err = ref.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	defer os.Remove(path)
	if err != nil {
		return simCounts{}, err
	}
	out, err := exec.Command(bin, "-trace", path, "-policy", "fifo2",
		"-pool", strconv.Itoa(sh.pool), "-frames", strconv.Itoa(sh.frames)).Output()
	if err != nil {
		return simCounts{}, fmt.Errorf("%s: %w", bin, err)
	}
	return parseHipecvm(string(out))
}

// parseHipecvm extracts the six counts from hipecvm's report.
func parseHipecvm(out string) (simCounts, error) {
	var c simCounts
	seen := 0
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fields := strings.Fields(val)
		if len(fields) == 0 {
			continue
		}
		var dst *int64
		switch key {
		case "accesses":
			dst = &c.accesses
		case "faults":
			dst = &c.faults
		case "page-ins":
			dst = &c.pageIns
		case "page-outs":
			dst = &c.pageOuts
		case "policy commands":
			dst = &c.commands
		case "virtual elapsed":
			c.elapsed = fields[0]
			seen++
			continue
		default:
			continue
		}
		n, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return c, fmt.Errorf("hipecvm %s: %w", key, err)
		}
		*dst = n
		seen++
	}
	if seen != 6 {
		return c, fmt.Errorf("hipecvm printed %d of the 6 expected figures:\n%s", seen, out)
	}
	return c, nil
}

// simWindow is one measured window of sim-faults: whole rounds, each one
// pass over every reference string, until the references alone have taken
// the window's length.
type simWindow struct {
	setup      []float64 // seconds, the mean over one round's passes
	run        time.Duration
	refs       int64
	faults     int64
	rec        *simRecorders  // whole window; traced only
	slices     []sliceFigures // one per round; untraced only
	sink       faultSink      // summed over the passes; traced only
	mem0, mem1 runtime.MemStats
}

// measureSim runs one untimed warm-up pass, then timed rounds. Every pass
// must reproduce its string's hipecvm counts exactly. The passes of a round
// take turns on the CPUs, shifting by one each round, so every round runs
// on every CPU alike.
func measureSim(rep *report, sh simShape, in []simInput, cpus cpuTurns, traced bool, window time.Duration) (*simWindow, error) {
	w := &simWindow{}
	if traced {
		w.rec = newSimRecorders()
	}
	pass := func(in simInput, rec *simRecorders) (simPass, error) {
		var sink *faultSink
		if traced {
			sink = &faultSink{}
		}
		p, err := runSimPass(sh, in.ref, sink, rec)
		if err != nil {
			return p, err
		}
		if p.counts != in.want {
			rep.fail("pass counts %+v differ from hipecvm's %+v", p.counts, in.want)
		}
		if sink != nil {
			if sink.hits+sink.faults != p.counts.accesses || sink.faults != p.counts.faults ||
				sink.pageIns != p.counts.pageIns || sink.pageOuts != p.counts.pageOuts || sink.commands != p.counts.commands {
				rep.fail("event sink counts %+v disagree with the kernel's %+v", *sink, p.counts)
			}
			w.sink.add(sink)
		}
		return p, nil
	}
	if _, err := pass(in[0], newSimRecorders()); err != nil {
		return nil, err
	}
	w.sink = faultSink{}
	defer cpus.release()
	runtime.ReadMemStats(&w.mem0)
	sl := newSlice(0)
	for round := 0; w.run < window; round++ {
		// Each round is one slice of the window.
		sl.reads.reset()
		sl.writes.reset()
		sl.ops, sl.width = 0, 0
		setup := 0.0
		for j, cur := range in {
			if err := cpus.turn(round + j); err != nil {
				return nil, err
			}
			rec := w.rec
			if !traced {
				rec = &simRecorders{reads: sl.reads, writes: sl.writes}
			}
			p, err := pass(cur, rec)
			if err != nil {
				return nil, err
			}
			n := int64(len(cur.ref.Records))
			if !traced {
				sl.ops += n
				sl.width += p.run
				// Collect the finished pass's kernel, untimed, so peak RSS
				// is one kernel's worth rather than wherever the pacer ran.
				runtime.GC()
			}
			setup += p.setup.Seconds()
			w.run += p.run
			w.refs += n
			w.faults += cur.want.faults
		}
		w.setup = append(w.setup, setup/float64(len(in)))
		if !traced {
			w.slices = append(w.slices, sl.figures())
		}
	}
	runtime.ReadMemStats(&w.mem1)
	return w, nil
}

func runSim(cfg config, sh simShape, rep *report) error {
	rep.header = append(rep.header, fmt.Sprintf(
		"shape: in-process, one thread; region %d pages, pool %d frames, %d-frame kernel; %d strings of %d references, one pass each per round, zipf(%v) pages, %.0f%% writes",
		sh.pages, sh.pool, sh.frames, sh.strs, sh.refs, sh.zipfS, 100*sh.writeFrac))
	if cfg.hipecvm == "" {
		return fmt.Errorf("sim-faults needs -hipecvm, a built cmd/hipecvm")
	}
	// Several strings, so a run's figures do not hang on the quirks of one.
	var in []simInput
	for k := 0; k < sh.strs; k++ {
		ref := referenceString(mix(cfg.seed, 5, k), sh.pages, sh.refs, sh.zipfS, sh.writeFrac)
		want, err := hipecvmCounts(cfg.hipecvm, cfg.dir, sh, ref)
		if err != nil {
			return err
		}
		rep.header = append(rep.header, fmt.Sprintf("hipecvm, string %d: %+v", k, want))
		in = append(in, simInput{ref, want})
	}
	if !cfg.traced {
		w, err := measureSim(rep, sh, in, cfg.cpus, false, cfg.window)
		if err != nil {
			return err
		}
		rep.res.Attempted = w.refs
		rep.set(endToEnd, "setup_s", median(w.setup), fmt.Sprintf("(median over %d rounds of the mean set-up)", len(w.setup)))
		rep.lines = append(rep.lines, fmt.Sprintf("  window: %d references in %.3f s = %.0f refs/s, %.0f sim faults/s",
			w.refs, w.run.Seconds(), float64(w.refs)/w.run.Seconds(), float64(w.faults)/w.run.Seconds()))
		reportSlices(rep, w.slices)
		return nil
	}
	plain, err := measureSim(rep, sh, in, cfg.cpus, false, cfg.window/2)
	if err != nil {
		return err
	}
	w, err := measureSim(rep, sh, in, cfg.cpus, true, cfg.window/2)
	if err != nil {
		return err
	}
	rep.res.Attempted = plain.refs + w.refs
	for _, name := range []string{
		"wire.req_bytes_per_op", "wire.resp_bytes_per_op", "server.replies_per_write",
		"server.conn_reads_per_op", "server.conn_writes_per_op", "server.residence_us_p50",
		"server.residence_us_p99", "server.residual_us_per_op", "client.rtt_us_mean",
		"client.transport_us_per_op", "core.loop_wait_us_p50", "core.loop_wait_us_p99",
		"store.reads_per_op", "store.writes_per_op", "store.us_per_op", "store.read_us_p50",
		"store.read_us_p99", "store.write_us_p50", "store.write_us_p99", "store.busy_frac",
	} {
		rep.set(perLayer, name, 0, "(network only)")
	}
	s := w.sink
	refs := float64(w.refs)
	faults := float64(max(s.faults, 1))
	rep.set(perLayer, "vm.hit_ratio", float64(s.hits)/float64(max(s.hits+s.faults, 1)),
		fmt.Sprintf("(%d hits / %d accesses)", s.hits, s.hits+s.faults))
	rep.set(perLayer, "vm.faults_per_op", float64(s.faults)/refs, "")
	rep.set(perLayer, "vm.pageins_per_op", float64(s.pageIns)/refs, "")
	rep.set(perLayer, "vm.pageouts_per_op", float64(s.pageOuts)/refs, "")
	rep.set(perLayer, "vm.evictions_per_op", float64(s.evictions)/refs, "")
	hit, fault := w.rec.hit.summarize(), w.rec.fault.summarize()
	rep.set(perLayer, "vm.hit_ns", 1000*hit.meanUS, fmt.Sprintf("(mean of %d)", hit.n))
	rep.set(perLayer, "vm.fault_ns", 1000*fault.meanUS, fmt.Sprintf("(mean of %d)", fault.n))
	rep.set(perLayer, "vm.pageouts_per_fault", float64(s.pageOuts)/faults, "")
	rep.set(perLayer, "core.commands_per_fault", float64(s.commands)/faults,
		fmt.Sprintf("(%d activations)", s.activations))
	if tr, err := translateUS(sh.pool); err != nil {
		rep.fail("translate: %v", err)
	} else {
		rep.set(perLayer, "hpl.translate_us", tr, "(median of 51)")
	}
	rep.set(perLayer, "runtime.allocs_per_op", float64(w.mem1.Mallocs-w.mem0.Mallocs)/refs, "")
	rep.set(perLayer, "runtime.gc_cycles_per_kop", 1000*float64(w.mem1.NumGC-w.mem0.NumGC)/refs, "")
	plainRate, tracedRate := float64(plain.refs)/plain.run.Seconds(), refs/w.run.Seconds()
	rep.set(perLayer, "trace.overhead_frac", 1-tracedRate/plainRate,
		fmt.Sprintf("(untraced %.0f refs/s, traced %.0f refs/s)", plainRate, tracedRate))
	return nil
}
