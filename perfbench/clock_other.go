//go:build !linux

package main

import "time"

var epoch = time.Now()

// cpuNow and threadCPUNow fall back to wall time where the CPU clocks
// are not available.
func cpuNow() time.Duration { return time.Since(epoch) }

func threadCPUNow() time.Duration { return time.Since(epoch) }
