// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, checks that every output is correct, and
// prints each metric by name and unit, ending with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"ops_per_s":{"value":...,"unit":"op/s"},...}}
//
// Workloads:
//
//   - net-hot: the served cache (internal/server over loopback, file store)
//     with every region smaller than its policy pool, so after the prefill
//     every request hits and the time goes to the wire, server batching and
//     the core.Loop hop.
//   - net-thrash: the same server with regions many times their pool and
//     Zipf-skewed full-page reads and writes, so most requests fault
//     through vm, the policy executor, pageout and the file store.
//   - sim-faults: eight seeded Zipf reference strings on the simulated
//     kernel, one pass over each per round, driven in-process through
//     Allocate/Touch/Write: the interpreted fault path in wall time, with no
//     network and no store I/O.
//
// --trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
// measures an untraced and a traced half-window and reports per-layer
// metrics, timed from outside through a wrapped store, a wrapped listener,
// a loop probe, Client.Stats deltas and a kernel event sink (see taps.go).
//
// Run it through run.sh, which builds it and cmd/hipecvm from source:
//
//	bash perfbench/run.sh --workload net-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

const pageSize = 4096

// A run sets up a network workload at least setupReps times and for at
// least setupMin, so a cheap set-up is repeated until its median settles;
// setup_s is the median. (sim-faults sets up once per pass.)
const (
	setupReps = 15
	setupMin  = time.Second
)

// The workloads. Every one runs the paper's FIFO with second chance.
// sim-faults' pool is a quarter of its region: at an eighth, about 1% of
// references took the policy's slow reclaim path (tens of microseconds),
// so p99 sat on that cliff and jumped fivefold from seed to seed.
var (
	netShapes = map[string]netShape{
		"net-hot": {regionPages: 256, pool: 512, payload: 64, writeFrac: 0.1, depth: 4},
		"net-thrash": {regionPages: 2048, pool: 64, payload: pageSize, writeFrac: 0.5, zipfS: 1.01,
			depth: 4},
	}
	simFaults = simShape{frames: 16384, pages: 4096, pool: 1024, refs: 200000, strs: 8, zipfS: 1.01, writeFrac: 0.3}
)

// conns is the number of client connections of a network workload.
const conns = 2

// procs is the benchmark's GOMAXPROCS. The load generator, the server and
// the kernel share one P, so a run measures the code rather than how often
// goroutine hand-offs cross cores on a shared host: with two Ps, net-thrash
// throughput and peak RSS spread several times wider from run to run.
const procs = 1

type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	hipecvm  string
	dir      string
	cpus     cpuTurns
}

func main() {
	var cfg config
	var seconds, traceFlag int
	var workdir string
	flag.StringVar(&cfg.workload, "workload", "", "workload: net-hot, net-thrash or sim-faults")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.hipecvm, "hipecvm", "", "built cmd/hipecvm, whose counts sim-faults must reproduce")
	flag.StringVar(&workdir, "workdir", ".", "directory for the run's store and trace files")
	flag.Parse()
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	runtime.GOMAXPROCS(procs)
	cfg.traced = traceFlag == 1

	dir, err := os.MkdirTemp(workdir, "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.dir = dir
	rep, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep.print(os.Stdout)
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if !rep.res.Correct {
		os.Exit(1)
	}
}

// report is one run's outcome: the result line, the human-readable lines
// before it, and every correctness check that failed.
type report struct {
	header   []string
	lines    []string
	failures []string
	res      result
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) set(defs []metricDef, name string, v float64, note string) {
	for _, d := range defs {
		if d.name == name {
			r.res.Metrics[name] = metric{Value: v, Unit: d.unit}
			line := fmt.Sprintf("  %-28s %14.4f %-7s", name, v, d.unit)
			if note != "" {
				line += "  " + note
			}
			if d.moves != "" {
				line += "  [" + d.layer + "; moves " + d.moves + "]"
			}
			r.lines = append(r.lines, line)
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}

func (r *report) print(f *os.File) {
	for _, l := range r.header {
		fmt.Fprintln(f, l)
	}
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	if len(r.failures) == 0 {
		fmt.Fprintln(f, "checks: all passed")
	} else {
		fmt.Fprintf(f, "checks: %d FAILED\n", len(r.failures))
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		panic(err) // only finite floats and strings: cannot fail
	}
	fmt.Fprintln(f, string(b))
}

func run(cfg config) (*report, error) {
	rep := &report{res: result{Metrics: map[string]metric{}}}
	rep.header = append(rep.header,
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%v trace=%v", cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.traced),
		"host: "+fingerprint())
	cfg.cpus = allowedCPUs()
	if err := cfg.cpus.release(); err != nil {
		rep.header = append(rep.header, fmt.Sprintf("cpus: %v, not pinned: %v", cfg.cpus, err))
		cfg.cpus = nil
	} else {
		rep.header = append(rep.header, fmt.Sprintf("cpus: %v, the process pinned to each in turn", cfg.cpus))
	}
	var err error
	if sh, ok := netShapes[cfg.workload]; ok {
		err = runNet(cfg, sh, rep)
	} else if cfg.workload == "sim-faults" {
		err = runSim(cfg, simFaults, rep)
	} else {
		return nil, fmt.Errorf("unknown workload %q (want net-hot, net-thrash or sim-faults)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rep.set(endToEnd, "rss_peak_mb", rss, "")
	}
	rep.res.Correct = len(rep.failures) == 0
	return rep, nil
}

// warmup is how long load runs, untimed, before a window of length w: a
// tenth of it, from half a second to two.
func warmup(w time.Duration) time.Duration {
	return min(max(w/10, 500*time.Millisecond), 2*time.Second)
}

// pctNote renders a distribution's sample count, and the refusal when a
// percentile lacks samples.
func pctNote(s summary) string {
	if s.err != nil {
		return fmt.Sprintf("(n=%d; refused: %v)", s.n, s.err)
	}
	return fmt.Sprintf("(n=%d)", s.n)
}
