package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"geoalign"
)

// ErrShuttingDown is returned for requests that arrive after the server
// began draining. The HTTP layer maps it to 503.
var ErrShuttingDown = errors.New("serve: shutting down")

// Coalescer micro-batches concurrent single-attribute requests against
// the same engine instance into one warm-started AlignAll call. The
// first request on an idle instance opens a batch and arms a maxWait
// timer; followers append to it. The batch fires when it reaches
// maxBatch objectives (in the goroutine of the filling request) or when
// the timer expires, whichever comes first. Batches are keyed by
// *Instance, so a hot swap splits traffic cleanly between generations.
//
// Coalescing does not change results: AlignAll is bitwise identical to
// per-call Align, with or without a fallback crosswalk. A request alone
// in its window runs Align's own single-attribute kernel; two or more
// share the fused batch pass.
type Coalescer struct {
	maxBatch int
	maxWait  time.Duration
	baseCtx  context.Context // solve lifetime: server-wide, not per-request
	metrics  *Metrics

	mu      sync.Mutex
	pending map[*Instance]*microBatch
	closed  bool
}

type microBatch struct {
	inst    *Instance
	objs    [][]float64
	timer   *time.Timer
	done    chan struct{}
	results []*geoalign.Result
	err     error
	size    int
}

func newCoalescer(maxBatch int, maxWait time.Duration, baseCtx context.Context, m *Metrics) *Coalescer {
	return &Coalescer{
		maxBatch: maxBatch,
		maxWait:  maxWait,
		baseCtx:  baseCtx,
		metrics:  m,
		pending:  make(map[*Instance]*microBatch),
	}
}

// Submit joins (or opens) the micro-batch for in and blocks until the
// batch has run or ctx is done. It returns this objective's result and
// the size of the batch that carried it. The solve itself runs under
// the coalescer's base context: a caller that gives up waiting
// abandons its slot, but the batch still completes for the others.
func (c *Coalescer) Submit(ctx context.Context, in *Instance, objective []float64) (*geoalign.Result, int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, 0, ErrShuttingDown
	}
	b := c.pending[in]
	if b == nil {
		b = &microBatch{inst: in, done: make(chan struct{})}
		// The batch holds its own claim on the instance so a hot swap
		// cannot observe "drained" while the solve is still running,
		// even if every waiter abandons.
		in.acquire()
		c.pending[in] = b
		if c.maxWait > 0 {
			b.timer = time.AfterFunc(c.maxWait, func() { c.fire(in, b) })
		}
	}
	idx := len(b.objs)
	b.objs = append(b.objs, objective)
	full := len(b.objs) >= c.maxBatch
	if full {
		delete(c.pending, in)
		if b.timer != nil {
			b.timer.Stop()
		}
	}
	c.mu.Unlock()

	// The goroutine that claims the batch runs it: the filler (full
	// above, detached under the lock), the timer callback, or — with no
	// batching window configured — whoever detaches it first.
	claimed := full
	if !full && c.maxWait <= 0 {
		claimed = c.detach(in, b)
	}
	if claimed {
		c.run(b)
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

// fire is the timer path: claim the batch if it is still pending and
// run it.
func (c *Coalescer) fire(in *Instance, b *microBatch) {
	if !c.detach(in, b) {
		return
	}
	c.run(b)
}

// detach removes b from the pending table if it is still the live batch
// for in, reporting whether this caller won the claim.
func (c *Coalescer) detach(in *Instance, b *microBatch) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[in] != b {
		return false
	}
	delete(c.pending, in)
	return true
}

// run executes a claimed batch and wakes its waiters. Exactly one
// goroutine runs any given batch.
func (c *Coalescer) run(b *microBatch) {
	b.size = len(b.objs)
	b.results, b.err = b.inst.aligner.AlignAllContext(c.baseCtx, b.objs)
	b.inst.release()
	if c.metrics != nil {
		c.metrics.observeBatch(b.size)
	}
	close(b.done)
}

// Shutdown stops accepting new submissions and synchronously runs every
// batch still waiting on its timer, so all current waiters get answers.
func (c *Coalescer) Shutdown() {
	c.mu.Lock()
	c.closed = true
	leftover := make([]*microBatch, 0, len(c.pending))
	for in, b := range c.pending {
		if b.timer != nil {
			b.timer.Stop()
		}
		delete(c.pending, in)
		leftover = append(leftover, b)
	}
	c.mu.Unlock()
	for _, b := range leftover {
		c.run(b)
	}
}
