package geoalign

import (
	"context"
	"fmt"
	"runtime"

	"geoalign/internal/core"
)

// AlignerOptions tunes a reusable Aligner. The zero value (or a nil
// pointer) gives the defaults: one worker per CPU, no fallback
// crosswalk.
type AlignerOptions struct {
	// Workers bounds the AlignAll worker pool. 0 ⇒ runtime.NumCPU().
	Workers int
	// Fallback, if set, redistributes the aggregates of source units
	// where every reference is zero according to this crosswalk instead
	// of dropping them — see AlignWithFallback.
	Fallback *Crosswalk
	// Deprecated: DiscardCrosswalks is ignored. Aligner results never
	// carry an estimated crosswalk; the package functions Align and
	// AlignWithFallback build one.
	DiscardCrosswalks bool
}

// engineOptions resolves opts (nil for defaults) into the engine
// options and the AlignAll worker count.
func engineOptions(opts *AlignerOptions) (core.Options, int) {
	if opts == nil {
		opts = &AlignerOptions{}
	}
	var coreOpts core.Options
	if opts.Fallback != nil {
		coreOpts.FallbackDM = opts.Fallback.matrix()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return coreOpts, workers
}

// Aligner is a reusable GeoAlign engine for crosswalking many
// attributes over one fixed set of references — the paper's §4.3 /
// Figure 8 workload, where dozens of attributes move between the same
// pair of unit systems. NewAligner precomputes and caches everything
// attribute-independent (validated shapes, compressed crosswalk forms,
// the reference row sums that give every Eq. 14 denominator, and the
// normal equations of the Eq. 15 design matrix), so each Align call
// runs only the per-attribute work: one O(ns·k) reduction c = Aᵀb, a
// weight-learning solve entirely in k-dimensional space, and the
// redistribution (Eq. 14/17) in one pass over the target-major
// crosswalks. AlignAll runs exactly that per attribute across a worker
// pool. Every solve starts from the weights its pooled scratch solved
// last, which changes the iteration count, not the result.
//
// An Aligner is immutable after construction and safe for concurrent
// use from multiple goroutines. It snapshots the reference crosswalks
// at construction: entries Added to a Crosswalk afterwards do not
// affect the Aligner.
type Aligner struct {
	engine  *core.Engine
	workers int
}

// NewAligner validates the references and builds the cached engine.
// opts may be nil for defaults.
func NewAligner(refs []Reference, opts *AlignerOptions) (*Aligner, error) {
	if len(refs) == 0 {
		return nil, ErrNoReferences
	}
	coreRefs := make([]core.Reference, len(refs))
	for k, r := range refs {
		if r.Crosswalk == nil {
			return nil, fmt.Errorf("geoalign: reference %q has no crosswalk", r.Name)
		}
		coreRefs[k] = core.Reference{Name: r.Name, Source: r.Source, DM: r.Crosswalk.matrix()}
	}
	coreOpts, workers := engineOptions(opts)
	engine, err := core.NewEngine(coreRefs, coreOpts)
	if err != nil {
		return nil, mapErr(err)
	}
	return &Aligner{engine: engine, workers: workers}, nil
}

// SourceUnits returns the number of source units the references share.
func (a *Aligner) SourceUnits() int { return a.engine.SourceUnits() }

// TargetUnits returns the number of target units.
func (a *Aligner) TargetUnits() int { return a.engine.TargetUnits() }

// References returns the number of references the Aligner was built
// with.
func (a *Aligner) References() int { return a.engine.References() }

// Align crosswalks one objective attribute, exactly like the package
// Align function with this Aligner's references, but reusing the
// cached precomputation. Safe to call from many goroutines at once.
func (a *Aligner) Align(objective []float64) (*Result, error) {
	return a.AlignContext(context.Background(), objective)
}

// AlignContext is Align with cancellation: the context is checked on
// entry and between the weight-learning and redistribution stages. On
// cancellation it returns ctx.Err() and no result. The result is
// bit-identical to Align's whenever the call completes.
func (a *Aligner) AlignContext(ctx context.Context, objective []float64) (*Result, error) {
	res, err := a.engine.AlignContext(ctx, objective)
	if err != nil {
		return nil, mapErr(err)
	}
	return &Result{Target: res.Target, Weights: res.Weights}, nil
}

// Weights runs only the weight-learning step for one objective.
func (a *Aligner) Weights(objective []float64) ([]float64, error) {
	w, err := a.engine.LearnWeights(objective)
	if err != nil {
		return nil, mapErr(err)
	}
	return w, nil
}

// WeightsResidual runs the weight-learning step and additionally
// reports the relative fitting residual ‖Aβ−b̂‖/‖b̂‖ of the Eq. 15
// least-squares problem, computed from the cached normal-equations
// form without touching the design matrix. A small residual means the
// references reconstruct the objective well on the source partition —
// the catalog uses it as an accuracy estimate for ranked join
// candidates. A zero objective reports residual 0.
func (a *Aligner) WeightsResidual(objective []float64) ([]float64, float64, error) {
	w, rel, err := a.engine.LearnWeightsResidual(objective)
	if err != nil {
		return nil, 0, mapErr(err)
	}
	return w, rel, nil
}

// PatternNNZ returns the number of nonzero entries in the union
// sparsity pattern of the reference crosswalks — the density of the
// estimated crosswalks over these references. It is counted on first
// use and cached.
func (a *Aligner) PatternNNZ() int { return a.engine.PatternNNZ() }

// AlignAll crosswalks a batch of objective attributes, fanning the
// per-attribute solves across the worker pool. results[i] corresponds
// to objectives[i]; the output is deterministic and identical to
// calling Align on each objective in sequence. On error, the first
// failure in input order is reported and the remaining results may be
// partially populated.
func (a *Aligner) AlignAll(objectives [][]float64) ([]*Result, error) {
	return a.AlignAllContext(context.Background(), objectives)
}

// AlignAllContext is AlignAll with cancellation. The context is checked
// before each attribute; once it is cancelled no further attribute
// starts and the call returns ctx.Err() with no results, since a
// partially aligned batch is not meaningful.
func (a *Aligner) AlignAllContext(ctx context.Context, objectives [][]float64) ([]*Result, error) {
	coreResults, err := a.engine.AlignAllContext(ctx, objectives, a.workers)
	results := make([]*Result, len(coreResults))
	for i, r := range coreResults {
		if r != nil {
			results[i] = &Result{Target: r.Target, Weights: r.Weights}
		}
	}
	if err != nil {
		return results, mapErr(err)
	}
	return results, nil
}
