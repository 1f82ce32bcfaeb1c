package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"geoalign"
)

// ErrShuttingDown is returned for requests that arrive after the server
// began draining. The HTTP layer maps it to 503.
var ErrShuttingDown = errors.New("serve: shutting down")

// Coalescer batches concurrent single-attribute requests against the
// same engine instance while that instance is busy. Each instance may
// run up to slots solves at once (runtime.GOMAXPROCS(0), read once). A
// request that finds a free slot solves at once, alone, in its own
// goroutine through Align. A request that arrives while every slot is
// busy joins the instance's one pending batch, and the first running
// solve to finish claims that batch and runs it as one warm-started
// AlignAll call. A pending batch that reaches maxBatch objectives runs
// at once in the goroutine of the request that filled it.
//
// No timer is involved, so an idle server adds no wait to a request,
// and the load sets the batch size: one at light load, growing as
// arrivals outpace solves. A batch costs the engine about what its
// objectives cost alone, since AlignAll runs Align's solve and
// redistribution per objective; what coalescing buys is a bound on the
// solves running per instance and a warm-started solver chain. Batches are keyed by *Instance, so a hot swap splits
// traffic cleanly between generations.
//
// Coalescing does not change results: AlignAll is bitwise identical to
// per-call Align, with or without a fallback crosswalk.
type Coalescer struct {
	maxBatch int
	slots    int             // concurrent solves per instance
	baseCtx  context.Context // solve lifetime: server-wide, not per-request
	metrics  *Metrics

	// beforeSolve, when set, runs in the solving goroutine just before
	// each solve, with the instance and the number of objectives the
	// solve carries. Tests use it to hold an instance busy; it is nil in
	// production.
	beforeSolve func(in *Instance, n int)

	mu     sync.Mutex
	lanes  map[*Instance]lane
	closed bool
}

// lane is one instance's coalescing state, guarded by Coalescer.mu. An
// instance with no solve running and nothing pending has no lane.
type lane struct {
	running int         // solves in progress, lone or batched
	pending *microBatch // requests waiting for a slot; nil when none
}

type microBatch struct {
	inst    *Instance
	objs    [][]float64
	done    chan struct{}
	results []*geoalign.Result
	err     error
	size    int
}

func newCoalescer(maxBatch int, baseCtx context.Context, m *Metrics) *Coalescer {
	return &Coalescer{
		maxBatch: maxBatch,
		slots:    runtime.GOMAXPROCS(0),
		baseCtx:  baseCtx,
		metrics:  m,
		lanes:    make(map[*Instance]lane),
	}
}

// Submit solves objective against in, at once when the instance has a
// free slot and otherwise in the instance's next batch, and blocks until
// the solve has run or ctx is done. The caller holds a lease on in for
// the duration of the call. It returns this objective's result and the
// size of the batch that carried it. The solve itself runs under the
// coalescer's base context: a caller that gives up waiting for a batch
// abandons its slot, but the batch still completes for the others.
func (c *Coalescer) Submit(ctx context.Context, in *Instance, objective []float64) (*geoalign.Result, int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, 0, ErrShuttingDown
	}
	ln := c.lanes[in]
	if ln.running < c.slots {
		ln.running++
		c.lanes[in] = ln
		c.mu.Unlock()
		if c.beforeSolve != nil {
			c.beforeSolve(in, 1)
		}
		res, err := in.aligner.AlignContext(c.baseCtx, objective)
		if c.metrics != nil {
			c.metrics.observeBatch(1)
		}
		c.finish(in)
		return res, 1, err
	}
	b := ln.pending
	if b == nil {
		b = &microBatch{inst: in, done: make(chan struct{})}
		// The batch holds its own claim on the instance so a hot swap
		// cannot observe "drained" while the solve is still running,
		// even if every waiter abandons.
		in.acquire()
		ln.pending = b
	}
	idx := len(b.objs)
	b.objs = append(b.objs, objective)
	full := len(b.objs) >= c.maxBatch
	if full {
		ln.pending = nil
		ln.running++
	}
	c.lanes[in] = ln
	c.mu.Unlock()

	if full {
		c.run(b)
		c.finish(in)
	}

	select {
	case <-b.done:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	if idx < len(b.results) && b.results[idx] != nil {
		return b.results[idx], b.size, nil
	}
	if b.err != nil {
		return nil, b.size, b.err
	}
	return nil, b.size, errors.New("serve: batch produced no result")
}

// finish ends one solve on in. If a batch is pending it takes over the
// finished solve's slot and runs on a goroutine of its own, so the
// request whose solve just ended is answered without waiting for it.
func (c *Coalescer) finish(in *Instance) {
	if b := c.next(in); b != nil {
		go c.drain(in, b)
	}
}

// next claims in's pending batch for a slot that just came free, or
// releases the slot when nothing is pending.
func (c *Coalescer) next(in *Instance) *microBatch {
	c.mu.Lock()
	defer c.mu.Unlock()
	ln := c.lanes[in]
	b := ln.pending
	if b != nil {
		ln.pending = nil
		c.lanes[in] = ln
		return b
	}
	if ln.running--; ln.running > 0 {
		c.lanes[in] = ln
	} else {
		delete(c.lanes, in)
	}
	return nil
}

// drain runs b, then every batch that gathers while it runs, until the
// instance has nothing pending.
func (c *Coalescer) drain(in *Instance, b *microBatch) {
	for b != nil {
		c.run(b)
		b = c.next(in)
	}
}

// run executes a claimed batch and wakes its waiters. Exactly one
// goroutine runs any given batch.
func (c *Coalescer) run(b *microBatch) {
	b.size = len(b.objs)
	if c.beforeSolve != nil {
		c.beforeSolve(b.inst, b.size)
	}
	b.results, b.err = b.inst.aligner.AlignAllContext(c.baseCtx, b.objs)
	b.inst.release()
	if c.metrics != nil {
		c.metrics.observeBatch(b.size)
	}
	close(b.done)
}

// Shutdown stops accepting new submissions and synchronously runs every
// batch still waiting for a slot, so all current waiters get answers.
func (c *Coalescer) Shutdown() {
	c.mu.Lock()
	c.closed = true
	var leftover []*microBatch
	for in, ln := range c.lanes {
		if ln.pending != nil {
			leftover = append(leftover, ln.pending)
			ln.pending = nil
			c.lanes[in] = ln
		}
	}
	c.mu.Unlock()
	for _, b := range leftover {
		c.run(b)
	}
}
