package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The clock ids of clock_gettime.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuNow returns the CPU time the whole process has used. One client does
// the work, so differences of cpuNow time that work together with what it
// causes on other threads, chiefly the Go collector's background marking
// of the garbage it allocates. Unlike wall time they exclude the time the
// virtual CPU is stolen by other tenants of a shared host, which otherwise
// moves every timing by tens of percent from one run to the next.
func cpuNow() time.Duration { return clockNow(clockProcessCPUTime) }

// threadCPUNow returns the CPU time the calling thread has used.
func threadCPUNow() time.Duration { return clockNow(clockThreadCPUTime) }

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
