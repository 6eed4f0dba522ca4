package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a percentile's rank before
// the percentile is reported: fewer, and the figure is one or two outliers
// rather than a property of the distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of the
// ascending-sorted samples. It refuses when fewer than minBeyond samples
// lie above the rank.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0, 100)", p)
	}
	if n == 0 {
		return 0, fmt.Errorf("p%v of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has only %d beyond it (need %d)", p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// reservoirCap bounds the latency samples one recorder keeps, so memory
// (and with it rss_peak_mb) does not grow with throughput; sliceCap bounds
// those of one slice of a window.
const (
	reservoirCap = 1 << 17
	sliceCap     = 1 << 15
)

// recorder accumulates durations: an exact count and sum over every
// observation, plus a uniform fixed-size sample (Vitter's algorithm R) for
// percentiles. It is not safe for concurrent use; see lockedRecorder.
type recorder struct {
	n       int64
	sum     time.Duration
	samples []float64 // microseconds
	rng     uint64    // xorshift state; deterministic so runs repeat
}

func newRecorder() *recorder { return newRecorderCap(reservoirCap) }

func newRecorderCap(n int) *recorder {
	return &recorder{samples: make([]float64, 0, n), rng: 0x9E3779B97F4A7C15}
}

func (r *recorder) add(d time.Duration) {
	r.n++
	r.sum += d
	us := float64(d) / float64(time.Microsecond)
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, us)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % uint64(r.n); j < uint64(len(r.samples)) {
		r.samples[j] = us
	}
}

// reset forgets every observation, keeping the sample buffer.
func (r *recorder) reset() {
	r.n, r.sum, r.samples = 0, 0, r.samples[:0]
}

// meanUS is the exact mean over every observation, in microseconds.
func (r *recorder) meanUS() float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.sum) / float64(r.n) / float64(time.Microsecond)
}

// summary is a recorder's distribution, ready to report.
type summary struct {
	n        int64   // observations
	meanUS   float64 // exact mean
	p50, p99 float64 // microseconds
	err      error   // set when a percentile was refused
}

func (r *recorder) summarize() summary {
	s := summary{n: r.n, meanUS: r.meanUS()}
	sorted := append([]float64(nil), r.samples...)
	sort.Float64s(sorted)
	var err50, err99 error
	s.p50, err50 = percentile(sorted, 50)
	s.p99, err99 = percentile(sorted, 99)
	if err50 != nil {
		s.err = err50
	} else {
		s.err = err99
	}
	return s
}

// slice is one stretch of a measured window: its own latency samples and
// completion count. End-to-end figures are medians across slices, so a
// burst of interference from elsewhere on a shared host moves one slice
// rather than the result.
type slice struct {
	reads, writes *recorder
	ops           int64
	width         time.Duration
}

func newSlice(width time.Duration) *slice {
	return &slice{reads: newRecorderCap(sliceCap), writes: newRecorderCap(sliceCap), width: width}
}

// figures summarizes the slice.
func (sl *slice) figures() sliceFigures {
	return sliceFigures{opsPerS: float64(sl.ops) / sl.width.Seconds(), read: sl.reads.summarize(), write: sl.writes.summarize()}
}

// sliceFigures are one slice's end-to-end figures.
type sliceFigures struct {
	opsPerS     float64
	read, write summary
}

// reportSlices reports the end-to-end rate and latency figures as medians
// across slices. A slice whose percentile is refused fails the run: the
// figure could not be measured.
func reportSlices(rep *report, slices []sliceFigures) {
	var ops, rMean, r99, wMean, w99 []float64
	var nr, nw int64
	for _, f := range slices {
		for _, s := range []summary{f.read, f.write} {
			if s.err != nil {
				rep.fail("latency percentile refused in a slice: %v", s.err)
			}
		}
		ops = append(ops, f.opsPerS)
		rMean, r99 = append(rMean, f.read.meanUS), append(r99, f.read.p99)
		wMean, w99 = append(wMean, f.write.meanUS), append(w99, f.write.p99)
		nr, nw = nr+f.read.n, nw+f.write.n
	}
	note := func(n int64) string { return fmt.Sprintf("(median of %d slices; n=%d)", len(slices), n) }
	rep.set(endToEnd, "ops_per_s", median(ops), note(nr+nw))
	rep.set(endToEnd, "read_mean_us", median(rMean), note(nr))
	rep.set(endToEnd, "read_p99_us", median(r99), note(nr))
	rep.set(endToEnd, "write_mean_us", median(wMean), note(nw))
	rep.set(endToEnd, "write_p99_us", median(w99), note(nw))
}

// lockedRecorder is a recorder shared by goroutines.
type lockedRecorder struct {
	mu sync.Mutex
	r  *recorder
}

func newLockedRecorder() *lockedRecorder { return &lockedRecorder{r: newRecorder()} }

func (l *lockedRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.r.add(d)
	l.mu.Unlock()
}

func (l *lockedRecorder) summarize() summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.summarize()
}

// median of a small set of values (set-up repetitions, translate timings).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
