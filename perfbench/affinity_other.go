//go:build !linux

package main

// Off Linux the process runs wherever the scheduler puts it.

func allowedCPUs() []int { return nil }

func pin(cpus ...int) error { return nil }
