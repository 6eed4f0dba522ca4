package bench

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// withParallelism runs fn with the pool width pinned to n, restoring the
// previous setting afterwards.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := int(parallelism.Load())
	SetParallelism(n)
	defer SetParallelism(prev)
	fn()
}

func TestRunCellsCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		withParallelism(t, workers, func() {
			const n = 100
			var hits [n]atomic.Int32
			if err := runCells(n, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d: cell %d ran %d times", workers, i, got)
				}
			}
		})
	}
}

// Errors must come back joined in cell order regardless of which worker
// hit them first, so failure output is deterministic too.
func TestRunCellsErrorOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withParallelism(t, workers, func() {
			err := runCells(10, func(i int) error {
				if i%3 == 0 {
					return errors.New(string(rune('a' + i)))
				}
				return nil
			})
			if err == nil {
				t.Fatal("expected error")
			}
			want := "a\nd\ng\nj"
			if err.Error() != want {
				t.Fatalf("workers=%d: joined error %q, want %q", workers, err.Error(), want)
			}
		})
	}
}

// The core guarantee of the harness: every experiment renders byte-identical
// output whether the cells run serially or fanned out. Each sweep runs at
// reduced scale once with one worker and once with eight; the formatted
// text (what the experiments binary prints) must match exactly.
func TestParallelSweepsMatchSerialByteForByte(t *testing.T) {
	fig5 := Figure5Config{Frames: 2048, UserCounts: []int{1, 3}, JobsPerUser: 2}
	fig6 := Figure6Config{
		OuterBytes: []int64{20 << 20, 60 << 20},
		MemBytes:   40 << 20,
		Frames:     MachineFrames,
		Scale:      512,
	}
	t3 := Table3Config{RegionBytes: 2 << 20, Frames: 2048}

	render := func() (out [4]string) {
		s5, err := RunFigure5(fig5)
		if err != nil {
			t.Fatal(err)
		}
		out[0] = FormatFigure5(s5)
		p6, err := RunFigure6(fig6)
		if err != nil {
			t.Fatal(err)
		}
		out[1] = FormatFigure6(p6, fig6.Scale)
		r3, err := RunTable3(t3)
		if err != nil {
			t.Fatal(err)
		}
		out[2] = r3.Format()
		ab, err := RunMechanismAblation(1024)
		if err != nil {
			t.Fatal(err)
		}
		out[3] = FormatMechanismAblation(ab, 1024)
		return out
	}

	var serial, parallel [4]string
	withParallelism(t, 1, func() { serial = render() })
	withParallelism(t, 8, func() { parallel = render() })
	names := [4]string{"figure5", "figure6", "table3", "ablation"}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("%s output differs between -j 1 and -j 8:\nserial:\n%s\nparallel:\n%s",
				names[i], serial[i], parallel[i])
		}
	}
}

func TestMeasurePerfReport(t *testing.T) {
	r, err := MeasurePerf()
	if err != nil {
		t.Fatal(err)
	}
	if r.SweepCellsPerSec <= 0 || r.ExecutorNsPerCommand <= 0 {
		t.Fatalf("implausible report: %+v", r)
	}
	if r.ExecutorAllocsPerRun > 1 {
		t.Errorf("executor fault path allocates: %.2f allocs/run", r.ExecutorAllocsPerRun)
	}
	if r.Host.CPUModel == "" || r.Host.NumCPU != runtime.NumCPU() || r.Host.GoVersion != runtime.Version() {
		t.Errorf("host fingerprint %+v does not describe this host", r.Host)
	}
	js := r.JSON()
	for _, field := range []string{"sweep_cells_per_sec", "executor_ns_per_command", "executor_allocs_per_run", "cpu_model", "nproc", "go_version"} {
		if !strings.Contains(js, field) {
			t.Fatalf("JSON missing %q:\n%s", field, js)
		}
	}
}

// BenchmarkFigure5Sweep measures wall-clock sweep throughput at the
// session's parallelism (GOMAXPROCS by default); cells/sec is the headline
// number for the harness.
func BenchmarkFigure5Sweep(b *testing.B) {
	cfg := perfSweepConfig()
	cells := 3 * len(cfg.UserCounts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure5(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
}
