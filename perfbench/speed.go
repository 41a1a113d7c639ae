package main

import (
	"runtime"
	"time"
)

// The host's speed drifts. On a shared machine the same work took up to
// 1.6 times the CPU time from one run to the next, a few minutes apart,
// and no clock excludes that: it is contention for the core's caches and
// memory, or a changed clock frequency, not stolen time. So the
// benchmark times a fixed calibration loop every probeEvery of the run
// and reports every timing as it would read on a reference host, on
// which the loop takes refCalibMS: a time t from a run in which the loop
// took c on median reads t·refCalibMS/c, a rate the inverse. A ratio of
// two timings is unchanged. The loop shares no code with the program, so
// a change to the program moves the scaled timings as it moves the raw
// ones.
const (
	// probeEvery is the wall time between two calibrations.
	probeEvery = 200 * time.Millisecond
	// calibWords is the calibration table's size: 4 MiB, beyond the
	// core's own caches, as the VM's memory and the IR are.
	calibWords = 1 << 20
	calibSteps = 1 << 18
	// refCalibMS is the loop's time on the reference host, a 2-vCPU
	// Firecracker VM with Go 1.24.
	refCalibMS = 3.0
)

// speedProbe keeps the calibration times of one run.
type speedProbe struct {
	table []uint32
	next  time.Time
	calib []float64     // ms per calibration
	spent time.Duration // process CPU time spent calibrating
}

// newSpeedProbe returns a probe whose table is already paged in.
func newSpeedProbe() *speedProbe {
	p := &speedProbe{table: make([]uint32, calibWords)}
	calibrate(p.table)
	return p
}

// poll calibrates when probeEvery has passed since the last calibration.
// It is called between timed operations, outside their timed regions;
// a timing that spans several operations subtracts spent.
func (p *speedProbe) poll() {
	if time.Now().Before(p.next) {
		return
	}
	start := cpuNow()
	p.calib = append(p.calib, calibrate(p.table))
	p.spent += cpuNow() - start
	p.next = time.Now().Add(probeEvery)
}

// scale is the factor that takes this run's times to the reference host.
func (p *speedProbe) scale() float64 {
	return ratio(refCalibMS, median(p.calib))
}

// atReferenceSpeed converts a value in unit, measured in a run with the
// given scale, to the reference host.
func atReferenceSpeed(v float64, unit string, scale float64) float64 {
	switch unit {
	case "s", "ms":
		return v * scale
	case "Minst/s":
		return ratio(v, scale)
	}
	return v
}

// calibrate runs the calibration loop, random reads and writes of table
// under unpredictable branches, and returns its time in milliseconds on
// the thread's CPU clock: the loop runs on one thread, and the process
// clock would also count a collection running beside it. Every call does
// the same work: the addresses and branches follow a fixed sequence, not
// the table's contents.
func calibrate(table []uint32) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	x := uint32(2463534242)
	start := threadCPUNow()
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & (calibWords - 1)
		if x&(1<<20) == 0 {
			table[j] += x
		} else {
			table[j] ^= x
		}
	}
	return ms(threadCPUNow() - start)
}
