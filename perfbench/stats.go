package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks. v is sorted in place; an empty v gives NaN.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// timeReps runs fn at least minReps times and until budget has elapsed,
// returning each call's wall time and process CPU time in seconds. Each
// call starts from a collected heap, so no call pays for its
// predecessors' garbage. Short one-shot steps are reported as the
// median of these repetitions, never as one sample. A non-nil cal takes
// a calibration sample before each call.
func timeReps(minReps int, budget time.Duration, cal *calibrator, fn func() error) (wall, cpu []float64, err error) {
	start := time.Now()
	for len(wall) < minReps || time.Since(start) < budget {
		if cal != nil {
			cal.sample()
		}
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		if err := fn(); err != nil {
			return nil, nil, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (processCPU() - c0).Seconds())
	}
	return wall, cpu, nil
}

// Clock ids from <time.h>.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// processCPU is the CPU time used by every thread of the process so
// far. A paravirtualised Linux guest leaves out the time the host ran
// other guests on this vCPU (steal), so a host that hands the vCPUs to
// other guests stretches the wall clock but not this one.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

// threadCPU is the CPU time used by the calling OS thread so far.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
