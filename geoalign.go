// Package geoalign realigns aggregate data between unaligned partitions
// of a universe. It implements GeoAlign (Song, Koutra, Mani, Jagadish:
// "GeoAlign: Interpolating Aggregates over Unaligned Partitions", EDBT
// 2018), an adaptive multi-reference crosswalk algorithm, together with
// the classic areal weighting and single-reference dasymetric baselines.
//
// The setting: an attribute of interest (say steam consumption) is
// published as aggregates over source units (zip codes), but you need
// it over target units (counties) that do not nest with the source
// units. GeoAlign estimates the target aggregates using one or more
// reference attributes whose fine-grained split between the two unit
// systems is known (crosswalk files such as the HUD/USPS zip–county
// tables), learning non-negative weights that make the references'
// combined source-level distribution match the objective's, then
// redistributing accordingly.
//
// The core entry point is Align:
//
//	refs := []geoalign.Reference{
//		{Name: "population", Crosswalk: popXwalk},
//		{Name: "accidents", Crosswalk: accXwalk},
//	}
//	res, err := geoalign.Align(steamByZip, refs)
//	// res.Target holds estimated steam consumption by county.
//
// # Aligning many attributes
//
// Align rebuilds the reference precomputation on every call. When many
// attributes are crosswalked over the same references, build an
// Aligner once and reuse it — it caches everything
// attribute-independent and fans batches across a worker pool:
//
//	aligner, err := geoalign.NewAligner(refs, nil)
//	results, err := aligner.AlignAll(attributeColumns)
//
// An Aligner is safe for concurrent use; AlignAll returns exactly what
// per-attribute Align calls would, in input order. Weight learning on
// an Aligner runs through cached normal equations of the fixed design
// matrix — per attribute only an O(sourceUnits·references) reduction
// plus a solve in reference-count dimensions, warm-started from the
// weights the engine's pooled solver state found last.
//
// Aggregate interpolation is dimension-independent: the same call
// realigns 1-D histograms, 2-D map layers, or n-D space–time grids —
// only the crosswalk construction differs. The subpackages under
// internal/ provide geometry, Voronoi layers, spatial indexes and file
// formats used by the bundled tools and experiments.
package geoalign

import (
	"errors"
	"fmt"
	"math"

	"geoalign/internal/core"
	"geoalign/internal/eval"
	"geoalign/internal/sparse"
)

// Crosswalk is a sparse source×target matrix describing how a reference
// attribute splits across the intersections of two unit systems:
// entry (i, j) is the reference's aggregate in source unit i ∩ target
// unit j. Build one with NewCrosswalk and Add, or FromDense.
type Crosswalk struct {
	rows, cols int
	coo        *sparse.COO // pending entries; nil once the CSR is built
	csr        *sparse.CSR // built lazily; invalidated by Add
}

// NewCrosswalk returns an empty crosswalk between sourceUnits source
// units and targetUnits target units.
func NewCrosswalk(sourceUnits, targetUnits int) *Crosswalk {
	return &Crosswalk{
		rows: sourceUnits,
		cols: targetUnits,
		coo:  sparse.NewCOO(sourceUnits, targetUnits),
	}
}

// FromDense builds a crosswalk from a dense matrix (rows = source
// units), skipping zero entries.
func FromDense(m [][]float64) (*Crosswalk, error) {
	csr, err := sparse.FromDense(m)
	if err != nil {
		return nil, err
	}
	return &Crosswalk{rows: csr.Rows, cols: csr.Cols, csr: csr}, nil
}

// Add accumulates v at (sourceUnit, targetUnit). Negative, NaN and
// infinite values are rejected: crosswalk entries are finite aggregates
// of a non-negative measure.
func (c *Crosswalk) Add(sourceUnit, targetUnit int, v float64) error {
	if !(v >= 0) || math.IsInf(v, 1) {
		return fmt.Errorf("geoalign: crosswalk entry %v at (%d,%d) is not a finite non-negative value", v, sourceUnit, targetUnit)
	}
	if sourceUnit < 0 || sourceUnit >= c.rows || targetUnit < 0 || targetUnit >= c.cols {
		return fmt.Errorf("geoalign: crosswalk index (%d,%d) out of bounds for %dx%d",
			sourceUnit, targetUnit, c.rows, c.cols)
	}
	if c.coo == nil {
		// Reopen a finalised crosswalk for appending.
		c.coo = sparse.NewCOO(c.rows, c.cols)
		if c.csr != nil {
			for i := 0; i < c.csr.Rows; i++ {
				cols, vals := c.csr.Row(i)
				for k, j := range cols {
					c.coo.Add(i, j, vals[k])
				}
			}
		}
	}
	c.coo.Add(sourceUnit, targetUnit, v)
	c.csr = nil
	return nil
}

// SourceUnits returns the number of source units (rows).
func (c *Crosswalk) SourceUnits() int { return c.rows }

// TargetUnits returns the number of target units (columns).
func (c *Crosswalk) TargetUnits() int { return c.cols }

// At returns the accumulated value at (sourceUnit, targetUnit).
func (c *Crosswalk) At(sourceUnit, targetUnit int) float64 {
	return c.matrix().At(sourceUnit, targetUnit)
}

// SourceTotals returns the reference's aggregate per source unit (row
// sums).
func (c *Crosswalk) SourceTotals() []float64 { return c.matrix().RowSums() }

// TargetTotals returns the reference's aggregate per target unit
// (column sums).
func (c *Crosswalk) TargetTotals() []float64 { return c.matrix().ColSums() }

// NonZeros returns the number of stored entries.
func (c *Crosswalk) NonZeros() int { return c.matrix().NNZ() }

// matrix returns the crosswalk as a CSR, building it on first use. The
// COO buffer is dropped once the CSR holds its entries, so a finalised
// crosswalk keeps one copy; a later Add reopens it from the CSR.
func (c *Crosswalk) matrix() *sparse.CSR {
	if c.csr == nil {
		if c.coo == nil {
			c.csr = sparse.NewEmptyCSR(c.rows, c.cols)
		} else {
			c.csr = c.coo.ToCSR()
			c.coo = nil
		}
	}
	return c.csr
}

// Reference is a reference attribute for GeoAlign: its crosswalk and,
// optionally, an independently published source-level aggregate vector.
// When Source is nil the crosswalk's own row sums are used (the
// self-consistent default). A separately published Source only
// influences weight learning; the redistribution itself always follows
// the crosswalk, so estimates remain volume-preserving.
type Reference struct {
	Name      string
	Source    []float64
	Crosswalk *Crosswalk
}

// Result is the output of Align.
type Result struct {
	// Target is the estimated aggregate of the objective attribute per
	// target unit.
	Target []float64
	// Weights is the learned convex combination β over the references
	// (non-negative, sums to 1). Weights[k] corresponds to the k-th
	// reference passed to Align.
	Weights []float64

	dm *sparse.CSR
}

// EstimatedCrosswalk returns the estimated disaggregation of the
// objective attribute across source×target intersections — the
// volume-preserving matrix whose column sums are Result.Target. Only
// the package functions Align and AlignWithFallback build it; Aligner
// results never carry one, and this returns nil for them.
func (r *Result) EstimatedCrosswalk() *Crosswalk {
	if r.dm == nil {
		return nil
	}
	return &Crosswalk{rows: r.dm.Rows, cols: r.dm.Cols, csr: r.dm.Clone()}
}

// Errors returned by the top-level API.
var (
	// ErrNoReferences is returned when Align is called without reference
	// attributes.
	ErrNoReferences = errors.New("geoalign: at least one reference is required")
	// ErrNoSourceUnits is returned when the objective vector is empty.
	ErrNoSourceUnits = errors.New("geoalign: objective has no source units")
	// ErrNonFiniteObjective is returned when the objective holds NaN or
	// ±Inf.
	ErrNonFiniteObjective = errors.New("geoalign: objective is not finite")
)

// Align runs the GeoAlign algorithm: it learns simplex weights β making
// the references' normalised source aggregates best match the
// objective's (Eq. 15 of the paper), forms the β-weighted combination
// of the reference crosswalks, rescales each source unit's row to the
// objective's aggregate (Eq. 14, volume-preserving), and re-aggregates
// by target unit (Eq. 17).
//
// objective must have one entry per source unit; every reference
// crosswalk must be objective×target shaped. Source units where every
// reference is zero contribute nothing to the estimate (the paper's
// degenerate case).
func Align(objective []float64, refs []Reference) (*Result, error) {
	return align(objective, refs, nil)
}

// AlignWithFallback is Align with one extra input: source units in
// which every reference is zero (the degenerate case Align drops, per
// the paper) redistribute according to the fallback crosswalk instead —
// typically the intersection-area matrix, so the degenerate units
// degrade gracefully to areal weighting.
func AlignWithFallback(objective []float64, refs []Reference, fallback *Crosswalk) (*Result, error) {
	var fb *sparse.CSR
	if fallback != nil {
		fb = fallback.matrix()
	}
	return align(objective, refs, fb)
}

// align runs the engine's redistribution for the target, then builds
// the estimated crosswalk from the learned weights.
func align(objective []float64, refs []Reference, fallback *sparse.CSR) (*Result, error) {
	p, err := toProblem(objective, refs)
	if err != nil {
		return nil, err
	}
	res, err := core.Align(p, core.Options{FallbackDM: fallback})
	if err != nil {
		return nil, mapErr(err)
	}
	dm, err := core.EstimatedDM(p, res.Weights, fallback)
	if err != nil {
		return nil, mapErr(err)
	}
	return &Result{Target: res.Target, Weights: res.Weights, dm: dm}, nil
}

// Weights runs only GeoAlign's weight-learning step, returning β
// without building the estimate. Useful for inspecting which references
// the objective resembles.
func Weights(objective []float64, refs []Reference) ([]float64, error) {
	p, err := toProblem(objective, refs)
	if err != nil {
		return nil, err
	}
	w, err := core.LearnWeights(p)
	if err != nil {
		return nil, mapErr(err)
	}
	return w, nil
}

// Dasymetric runs the classic single-reference dasymetric method:
// each source aggregate is split across target units in proportion to
// the reference crosswalk's row.
func Dasymetric(objective []float64, ref Reference) ([]float64, error) {
	if len(objective) == 0 {
		return nil, ErrNoSourceUnits
	}
	if ref.Crosswalk == nil {
		return nil, fmt.Errorf("geoalign: reference %q has no crosswalk", ref.Name)
	}
	out, err := core.Dasymetric(objective, core.Reference{
		Name:   ref.Name,
		Source: ref.Source,
		DM:     ref.Crosswalk.matrix(),
	})
	if err != nil {
		return nil, mapErr(err)
	}
	return out, nil
}

// ArealWeighting runs the areal weighting baseline: dasymetric with the
// source∩target intersection areas as the reference. It assumes the
// objective is uniformly dense within each source unit — rarely true,
// and the reason GeoAlign exists.
func ArealWeighting(objective []float64, intersectionAreas *Crosswalk) ([]float64, error) {
	return Dasymetric(objective, Reference{Name: "area", Crosswalk: intersectionAreas})
}

// RMSE returns the root mean square error between an estimate and the
// truth — the paper's evaluation metric.
func RMSE(estimate, truth []float64) float64 { return eval.RMSE(estimate, truth) }

// NRMSE returns RMSE normalised by the mean of the truth, for
// comparisons across attributes of different scales.
func NRMSE(estimate, truth []float64) float64 { return eval.NRMSE(estimate, truth) }

func toProblem(objective []float64, refs []Reference) (core.Problem, error) {
	if len(objective) == 0 {
		return core.Problem{}, ErrNoSourceUnits
	}
	if len(refs) == 0 {
		return core.Problem{}, ErrNoReferences
	}
	p := core.Problem{Objective: objective}
	for _, r := range refs {
		if r.Crosswalk == nil {
			return core.Problem{}, fmt.Errorf("geoalign: reference %q has no crosswalk", r.Name)
		}
		p.References = append(p.References, core.Reference{
			Name:   r.Name,
			Source: r.Source,
			DM:     r.Crosswalk.matrix(),
		})
	}
	return p, nil
}

func mapErr(err error) error {
	switch {
	case errors.Is(err, core.ErrNoReferences):
		return ErrNoReferences
	case errors.Is(err, core.ErrNoSourceUnits):
		return ErrNoSourceUnits
	case errors.Is(err, core.ErrNonFiniteObjective):
		return ErrNonFiniteObjective
	default:
		return err
	}
}
