package main

import (
	"errors"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask: up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the calling thread may run on, or nil when
// the kernel will not say.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// pin restricts every thread of the process to cpus. A thread the runtime
// starts later takes the mask of the thread that starts it.
func pin(cpus ...int) error {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		if e != 0 && !errors.Is(e, syscall.ESRCH) { // ESRCH: the thread has exited
			return e
		}
	}
	return nil
}
