package main

import (
	"sync"
	"time"
)

// cpuTurns pins the process to one CPU at a time, in turn, so that every
// measured figure is taken on all of them alike. On a shared host the CPUs
// of one machine can run at speeds up to half apart, and a process left to
// the scheduler stays for a whole run on whichever it started on.
type cpuTurns []int

// n is how many CPUs take turns; 1 when the process is not pinned.
func (c cpuTurns) n() int { return max(len(c), 1) }

// turn pins the process to the i-th CPU in turn.
func (c cpuTurns) turn(i int) error {
	if len(c) == 0 {
		return nil
	}
	return pin(c[i%len(c)])
}

// release lets the process run on every CPU again.
func (c cpuTurns) release() error {
	if len(c) == 0 {
		return nil
	}
	return pin(c...)
}

// rotate moves the process to the next CPU every step until the returned
// stop function is called; stop releases the process and returns once the
// rotating goroutine has exited.
func (c cpuTurns) rotate(step time.Duration) (stop func()) {
	if len(c) < 2 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(step)
		defer tick.Stop()
		for i := 0; ; i++ {
			c.turn(i) // cannot fail: the same CPUs pinned at start-up
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		c.release()
	}
}

// groupMeans averages each run of k consecutive values (one turn on each
// CPU), dropping an incomplete last group.
func groupMeans(v []float64, k int) []float64 {
	var out []float64
	for i := 0; i+k <= len(v); i += k {
		sum := 0.0
		for _, x := range v[i : i+k] {
			sum += x
		}
		out = append(out, sum/float64(k))
	}
	return out
}
