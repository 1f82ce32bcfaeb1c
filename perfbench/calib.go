package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host is a shared VM whose speed drifts by a fifth or more over
// minutes, in CPU time as well as in wall time: other guests contend
// for the cores' caches and memory bandwidth. So the run times a fixed
// reference kernel of its own many times, spread over the whole run,
// and reports every CPU time scaled by calibNominal over the kernel's
// median: the time the work would have taken on a host that runs the
// kernel in calibNominal. The kernel's code and inputs never change with
// the program or the seed, so a change to the program moves the scaled
// figures and a change of host speed moves them much less.
//
// Samples are taken between the repetitions of the set-up and offline
// steps, and every calibInterval by a background thread during the
// load phases. One sample is a median of nothing: the host's speed also
// flickers over seconds, and only the median over the whole run
// follows its drift. The kernel is a sparse transpose product over CSR
// arrays (the engine's c=Aᵀb) and a sort of floats (branchy compute).
const (
	calibRows     = 16384
	calibCols     = 2048
	calibRowNNZ   = 8
	calibProds    = 12
	calibSortLen  = 32768
	calibInterval = 500 * time.Millisecond
	// calibNominal is about the kernel's median CPU time on the 2-vCPU
	// host the benchmark was sized on.
	calibNominal = 10 * time.Millisecond
)

type calibKernel struct {
	rowPtr []int32
	colIdx []int32
	vals   []float64
	x, y   []float64
	sortIn []float64
	sortW  []float64
}

func newCalibKernel() *calibKernel {
	rng := rand.New(rand.NewSource(1)) // fixed: the kernel is the same in every run
	k := &calibKernel{
		rowPtr: make([]int32, calibRows+1),
		colIdx: make([]int32, calibRows*calibRowNNZ),
		vals:   make([]float64, calibRows*calibRowNNZ),
		x:      make([]float64, calibRows),
		y:      make([]float64, calibCols),
		sortIn: make([]float64, calibSortLen),
		sortW:  make([]float64, calibSortLen),
	}
	for i := 0; i < calibRows; i++ {
		k.rowPtr[i+1] = int32((i + 1) * calibRowNNZ)
		k.x[i] = rng.Float64()
		for j := i * calibRowNNZ; j < (i+1)*calibRowNNZ; j++ {
			k.colIdx[j] = int32(rng.Intn(calibCols))
			k.vals[j] = rng.Float64()
		}
	}
	for i := range k.sortIn {
		k.sortIn[i] = rng.Float64()
	}
	return k
}

// once runs the kernel one time and returns a value that depends on
// all of its work, so none of it can be optimised away.
func (k *calibKernel) once() float64 {
	for i := range k.y {
		k.y[i] = 0
	}
	for p := 0; p < calibProds; p++ {
		for i := 0; i < calibRows; i++ {
			xi := k.x[i]
			for j := k.rowPtr[i]; j < k.rowPtr[i+1]; j++ {
				k.y[k.colIdx[j]] += k.vals[j] * xi
			}
		}
	}
	copy(k.sortW, k.sortIn)
	sort.Float64s(k.sortW)
	return k.y[0] + k.sortW[calibSortLen/2]
}

// calibrator collects the kernel's CPU times over a run.
type calibrator struct {
	k       *calibKernel
	mu      sync.Mutex
	samples []float64     // ns per kernel run
	paused  bool          // background samples are skipped
	spent   atomic.Int64  // ns of CPU the kernel has used, all samples
	sink    atomic.Uint64 // keeps the kernel's result live
}

func newCalibrator() *calibrator { return &calibrator{k: newCalibKernel()} }

// sample runs the kernel once on a locked thread and records its
// thread CPU time, which leaves out other goroutines' work.
func (c *calibrator) sample() { c.take(false) }

func (c *calibrator) take(background bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if background && c.paused {
		return
	}
	runtime.LockOSThread()
	t0 := threadCPU()
	v := c.k.once()
	d := threadCPU() - t0
	runtime.UnlockOSThread()
	c.sink.Add(uint64(v))
	c.samples = append(c.samples, float64(d))
	c.spent.Add(int64(d))
}

// background samples every calibInterval, unless paused, until stop is
// called; stop waits for the sampling goroutine to end.
func (c *calibrator) background() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(calibInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.take(true)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// pause stops background samples until resume, once any sample under
// way has ended, so a short timed step never shares the CPU with one.
func (c *calibrator) pause() {
	c.mu.Lock()
	c.paused = true
	c.mu.Unlock()
}

func (c *calibrator) resume() {
	c.mu.Lock()
	c.paused = false
	c.mu.Unlock()
}

// scale is calibNominal over the kernel's median time: a CPU time
// measured in this run times scale is the time at nominal host speed.
func (c *calibrator) scale() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(calibNominal) / median(append([]float64(nil), c.samples...))
}

func (c *calibrator) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples)
}
