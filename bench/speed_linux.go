package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU is the CPU time the calling OS thread has consumed, from the
// kernel's per-thread clock (getrusage's thread times only advance by
// whole scheduler ticks, far too coarse for a 0.3 ms kernel).
func threadCPU() (time.Duration, bool) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}
