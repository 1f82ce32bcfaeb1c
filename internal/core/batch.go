package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// AlignAll crosswalks a batch of objectives, fanning them across a pool
// of workers (0 ⇒ runtime.NumCPU()). Each objective runs exactly the
// solve and redistribution of Align on its worker's pooled scratch, so
// each active-set solve starts from the β that worker solved last.
// Results are written to disjoint slots, so the output order matches
// the input order and is independent of scheduling, and every result
// is bit-identical to Align's. On error the first failure in input
// order is returned alongside the results computed so far.
func (e *Engine) AlignAll(objectives [][]float64, workers int) ([]*Result, error) {
	return e.AlignAllContext(context.Background(), objectives, workers)
}

// AlignAllContext is AlignAll with cancellation. The context is checked
// before each objective; once it is cancelled no further objective
// starts and the call returns ctx.Err() with no results, since a
// partially aligned batch is not meaningful.
func (e *Engine) AlignAllContext(ctx context.Context, objectives [][]float64, workers int) ([]*Result, error) {
	n := len(objectives)
	results := make([]*Result, n)
	if n == 0 {
		return results, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, n)
	errs := make([]error, n)

	// work runs one worker: it claims objectives in index order until
	// none is left or the context is cancelled, keeping one scratch
	// across them.
	var next atomic.Int64
	work := func() {
		s := e.scratch.Get().(*engineScratch)
		defer e.scratch.Put(s)
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			obj := objectives[i]
			if errs[i] = e.checkObjective(obj); errs[i] != nil {
				continue
			}
			beta, err := e.learnWeights(obj, nil, s)
			if err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = e.redistribute(obj, beta, s)
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("core: objective %d: %w", i, err)
		}
	}
	return results, nil
}
