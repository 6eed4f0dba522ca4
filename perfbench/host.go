package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint names the host a result was measured on, so results from
// different machines are never compared as if alike.
func fingerprint() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s os=%s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, runtime.GOOS, runtime.GOARCH)
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
