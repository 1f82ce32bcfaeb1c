// Package core implements the paper's contribution: the GeoAlign
// multi-reference crosswalk algorithm (Algorithm 1), together with the
// baselines it is evaluated against — the areal weighting method and
// the single-reference dasymetric method.
//
// All three are "extensive" two-step approximators (§3.1): they
// disaggregate the objective attribute's source-unit aggregates into
// the source×target intersection units and then re-aggregate by target
// unit. All three preserve volume (Eq. 10/16): each row of the
// estimated disaggregation matrix sums to the corresponding source
// aggregate, except for rows where every reference is zero, which the
// paper defines to be zero (Eq. 14, second case).
//
// GeoAlign fuses the two steps: an Engine sums the re-aggregated target
// from target-major crosswalks and never builds the estimated matrix.
// EstimatedDM builds it on demand from the learned weights for callers
// that want the crosswalk itself.
package core

import (
	"errors"
	"fmt"

	"geoalign/internal/linalg"
	"geoalign/internal/sparse"
)

// Reference is a reference attribute: its aggregate vector over the
// source units and its (true) disaggregation matrix between source and
// target units. If Source is nil it is derived from DM's row sums,
// which is the self-consistent choice; providing Source explicitly
// models the paper's setting where the published source aggregates may
// disagree slightly (or, in §4.4.1, noisily) with the crosswalk file.
// The Source vector feeds weight learning (Eq. 15); the disaggregation
// step (Eq. 14) always scales against the crosswalk's own row sums so
// Eq. (16) holds exactly.
type Reference struct {
	Name   string
	Source []float64   // length |U^s|; nil ⇒ DM.RowSums()
	DM     *sparse.CSR // |U^s| × |U^t|
}

// Problem is one crosswalk task: realign the objective attribute's
// source aggregates onto the target units using the references.
type Problem struct {
	Objective  []float64 // a_o^s, length |U^s|
	References []Reference
}

// Result carries the estimate and the learned weights, which the
// paper's robustness analyses inspect.
type Result struct {
	Target  []float64 // â_o^t, length |U^t|
	Weights []float64 // β, length |references|; sums to 1
}

// Errors returned by validation.
var (
	ErrNoReferences  = errors.New("core: no reference attributes")
	ErrNoSourceUnits = errors.New("core: objective has no source units")
	// ErrNonFiniteObjective rejects an objective holding NaN or ±Inf:
	// the max-normalisation of Eq. 15 would turn it into a silent
	// wrong answer.
	ErrNonFiniteObjective = errors.New("core: objective is not finite")
	// ErrBadReference rejects a reference NewEngine cannot trust: a
	// malformed crosswalk CSR, or a crosswalk or Source value that is
	// NaN, ±Inf or negative.
	ErrBadReference = errors.New("core: bad reference")
)

// Options tunes GeoAlign behaviour. The zero value reproduces the
// paper's algorithm.
type Options struct {
	// FallbackDM, if set, redistributes the aggregates of source units
	// where every reference is zero (the Eq. 14 degenerate case, which
	// the paper drops) according to this crosswalk instead — typically
	// the intersection-area matrix, turning the degenerate case into
	// areal weighting rather than losing the mass. It must be
	// |U^s|×|U^t| shaped.
	FallbackDM *sparse.CSR
}

// Align runs GeoAlign (Algorithm 1): weight learning (Eq. 15),
// disaggregation (Eq. 14), re-aggregation (Eq. 17).
//
// The Eq. 14 numerator is Σ_k β_k·DM'_rk with each reference crosswalk
// normalised by its largest source aggregate, matching the
// max-normalisation of the weight-learning step ("the magnitude of the
// references should not be a contributing factor", §3.4) — without it,
// Eq. (14) as printed would let a large-valued reference dominate the
// share mixture regardless of β. The denominator per source unit i is
// the numerator's own row sum rather than any separately published
// source vector — the consistent reading of Eq. (14): it makes the
// volume-preserving property (Eq. 16) hold exactly, and it is what
// keeps GeoAlign robust when the published source aggregates are noisy
// (§4.4.1): noise then only perturbs the learned weights.
//
// Align is a thin wrapper that builds a single-use Engine; callers
// crosswalking many attributes over the same references should build
// the Engine once with NewEngine and use Align/AlignAll on it, which
// amortises the crosswalk precomputation across attributes.
func Align(p Problem, opts Options) (*Result, error) {
	if _, _, err := validate(p); err != nil {
		return nil, err
	}
	e, err := NewEngine(p.References, opts)
	if err != nil {
		return nil, err
	}
	return e.Align(p.Objective)
}

// LearnWeights performs only GeoAlign's weight-learning step and
// returns β. Exposed separately for the robustness experiments that
// inspect the learned weights.
func LearnWeights(p Problem) ([]float64, error) {
	if _, _, err := validate(p); err != nil {
		return nil, err
	}
	cols := make([][]float64, len(p.References))
	for k, r := range p.References {
		cols[k] = maxNormalise(referenceSource(r))
	}
	a, err := linalg.MatrixFromColumns(cols)
	if err != nil {
		return nil, err
	}
	// Route the one-shot solve through the same Gram-form code path the
	// Engine uses, so the two produce bit-identical weights.
	return linalg.NewGramSystem(a).SimplexLS(maxNormalise(p.Objective), nil)
}

// referenceSource returns the reference's source aggregate vector,
// deriving it from the disaggregation matrix when absent.
func referenceSource(r Reference) []float64 {
	if r.Source != nil {
		return r.Source
	}
	return r.DM.RowSums()
}

// maxNormalise returns v / max(v) (a fresh slice); an all-zero vector
// normalises to itself.
func maxNormalise(v []float64) []float64 {
	out := make([]float64, len(v))
	maxNormaliseInto(out, v)
	return out
}

// maxNormaliseInto writes v / max(v) into dst, which must have length
// len(v); an all-zero vector normalises to zeros.
func maxNormaliseInto(dst, v []float64) {
	var mx float64
	for _, x := range v {
		if x > mx {
			mx = x
		}
	}
	if mx == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for i, x := range v {
		dst[i] = x / mx
	}
}

func validate(p Problem) (ns, nt int, err error) {
	ns = len(p.Objective)
	if ns == 0 {
		return 0, 0, ErrNoSourceUnits
	}
	if len(p.References) == 0 {
		return 0, 0, ErrNoReferences
	}
	for k, r := range p.References {
		if r.DM == nil {
			return 0, 0, fmt.Errorf("core: reference %d (%s) has no disaggregation matrix", k, r.Name)
		}
	}
	nt = p.References[0].DM.Cols
	for k, r := range p.References {
		if r.DM.Rows != ns {
			return 0, 0, fmt.Errorf("core: reference %d (%s) DM has %d rows, objective has %d source units",
				k, r.Name, r.DM.Rows, ns)
		}
		if r.DM.Cols != nt {
			return 0, 0, fmt.Errorf("core: reference %d (%s) DM has %d cols, reference 0 has %d",
				k, r.Name, r.DM.Cols, nt)
		}
		if r.Source != nil && len(r.Source) != ns {
			return 0, 0, fmt.Errorf("core: reference %d (%s) source vector length %d, want %d",
				k, r.Name, len(r.Source), ns)
		}
	}
	return ns, nt, checkFinite(p.Objective)
}

// EstimatedDM builds the estimated disaggregation matrix of Eq. 14 for
// already-learned weights: the β-weighted combination of the
// max-normalised reference crosswalks, each row rescaled to the
// objective's aggregate. With a fallback, every degenerate row (no
// reference support, nonzero objective) takes the fallback's row
// rescaled the same way, unless the fallback has no support there
// either. Its column sums are Align's target (Eq. 17) up to summation
// order. Engines never build this matrix; it serves callers that want
// the crosswalk itself.
func EstimatedDM(p Problem, weights []float64, fallback *sparse.CSR) (*sparse.CSR, error) {
	ns, nt, err := validate(p)
	if err != nil {
		return nil, err
	}
	if len(weights) != len(p.References) {
		return nil, fmt.Errorf("core: %d weights for %d references", len(weights), len(p.References))
	}
	dms := make([]*sparse.CSR, len(p.References))
	w := make([]float64, len(p.References))
	for k, r := range p.References {
		dms[k] = r.DM
		w[k] = weights[k]
		if mx := linalg.MaxAbs(r.DM.RowSums()); mx > 0 {
			w[k] /= mx
		}
	}
	num, err := sparse.WeightedSum(dms, w)
	if err != nil {
		return nil, err
	}
	den := num.RowSums()
	scale := make([]float64, ns)
	var degenerate []int
	for i, d := range den {
		if d != 0 {
			scale[i] = p.Objective[i] / d
		} else if p.Objective[i] != 0 {
			degenerate = append(degenerate, i)
		}
	}
	dm := num.ScaleRows(scale)
	if fallback == nil || len(degenerate) == 0 {
		return dm, nil
	}
	if fallback.Rows != ns || fallback.Cols != nt {
		return nil, fmt.Errorf("core: fallback DM is %dx%d, want %dx%d", fallback.Rows, fallback.Cols, ns, nt)
	}
	fbSums := fallback.RowSums()
	coo := sparse.NewCOOWithCapacity(ns, nt, dm.NNZ())
	for i := 0; i < ns; i++ {
		cols, vals := dm.Row(i)
		for t, j := range cols {
			coo.Add(i, j, vals[t])
		}
	}
	for _, i := range degenerate {
		if fbSums[i] == 0 {
			continue
		}
		f := p.Objective[i] / fbSums[i]
		cols, vals := fallback.Row(i)
		for t, j := range cols {
			coo.Add(i, j, f*vals[t])
		}
	}
	return coo.ToCSR(), nil
}

// Dasymetric runs the single-reference dasymetric method: it
// redistributes each source aggregate across target units in proportion
// to the reference's disaggregation matrix row. Source units where the
// reference is zero contribute nothing (volume is not preserved there,
// matching the standard method's behaviour on unsupported units).
func Dasymetric(objective []float64, ref Reference) ([]float64, error) {
	if len(objective) == 0 {
		return nil, ErrNoSourceUnits
	}
	if ref.DM == nil {
		return nil, fmt.Errorf("core: dasymetric reference %q has no disaggregation matrix", ref.Name)
	}
	if ref.DM.Rows != len(objective) {
		return nil, fmt.Errorf("core: dasymetric reference %q DM has %d rows, objective has %d",
			ref.Name, ref.DM.Rows, len(objective))
	}
	rowTotals := ref.DM.RowSums()
	out := make([]float64, ref.DM.Cols)
	for i, ao := range objective {
		if ao == 0 || rowTotals[i] == 0 {
			continue
		}
		f := ao / rowTotals[i]
		cols, vals := ref.DM.Row(i)
		for k, j := range cols {
			out[j] += f * vals[k]
		}
	}
	return out, nil
}

// ArealWeighting runs the areal weighting baseline: dasymetric with the
// intersection areas as the reference (§3.3's "special case"). areaDM
// must contain the source×target intersection areas.
func ArealWeighting(objective []float64, areaDM *sparse.CSR) ([]float64, error) {
	return Dasymetric(objective, Reference{Name: "area", DM: areaDM})
}

// CheckVolumePreserving verifies Eq. (16) on an estimated disaggregation
// matrix: every row must sum to the source aggregate within tol, except
// rows the algorithm zeroed for lack of reference support (their source
// aggregate is redistributed nowhere and the row must be all zero).
// It returns the first violating row index, or -1.
func CheckVolumePreserving(dm *sparse.CSR, objective []float64, tol float64) int {
	sums := dm.RowSums()
	for i, s := range sums {
		d := s - objective[i]
		if d < 0 {
			d = -d
		}
		if d > tol && s != 0 {
			return i
		}
	}
	return -1
}
