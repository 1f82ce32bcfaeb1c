package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geoalign/internal/linalg"
	"geoalign/internal/sparse"
)

// legacyAlign is the pre-Engine, full-matrix Align implementation,
// kept as the oracle: the Engine's transpose form must reproduce its
// numerics on every input.
func legacyAlign(p Problem, opts Options) (*Result, error) {
	ns, _, err := validate(p)
	if err != nil {
		return nil, err
	}
	beta, err := LearnWeights(p)
	if err != nil {
		return nil, err
	}
	dms := make([]*sparse.CSR, len(p.References))
	w := make([]float64, len(p.References))
	for k, r := range p.References {
		dms[k] = r.DM
		w[k] = beta[k]
		if mx := linalg.MaxAbs(r.DM.RowSums()); mx > 0 {
			w[k] = beta[k] / mx
		}
	}
	num, err := sparse.WeightedSum(dms, w)
	if err != nil {
		return nil, err
	}
	den := num.RowSums()
	scale := make([]float64, ns)
	var degenerate []int
	for i := 0; i < ns; i++ {
		if den[i] != 0 {
			scale[i] = p.Objective[i] / den[i]
		} else if p.Objective[i] != 0 {
			degenerate = append(degenerate, i)
		}
	}
	dmo := num.ScaleRows(scale)
	if opts.FallbackDM != nil && len(degenerate) > 0 {
		fb := opts.FallbackDM
		if fb.Rows != ns || fb.Cols != dmo.Cols {
			return nil, fmt.Errorf("core: fallback DM is %dx%d, want %dx%d", fb.Rows, fb.Cols, ns, dmo.Cols)
		}
		// Replace each degenerate row by the fallback's row, rescaled to
		// the objective; rows the fallback does not support stay zero.
		fbSums := fb.RowSums()
		coo := sparse.NewCOO(ns, dmo.Cols)
		for i := 0; i < ns; i++ {
			cols, vals := dmo.Row(i)
			for t, j := range cols {
				coo.Add(i, j, vals[t])
			}
		}
		for _, i := range degenerate {
			if fbSums[i] == 0 {
				continue
			}
			cols, vals := fb.Row(i)
			for t, j := range cols {
				coo.Add(i, j, p.Objective[i]/fbSums[i]*vals[t])
			}
		}
		dmo = coo.ToCSR()
	}
	return &Result{Target: dmo.ColSums(), Weights: beta}, nil
}

// engineProblem builds a randomized problem with empty rows, explicit
// source vectors and occasional single-reference cases.
func engineProblem(rng *rand.Rand, ns, nt, k int) Problem {
	refs := make([]Reference, k)
	for kk := 0; kk < k; kk++ {
		coo := sparse.NewCOO(ns, nt)
		for i := 0; i < ns; i++ {
			if rng.Float64() < 0.15 {
				continue // this reference has no support here
			}
			deg := 1 + rng.Intn(3)
			for d := 0; d < deg; d++ {
				coo.Add(i, rng.Intn(nt), rng.Float64()*1000)
			}
		}
		refs[kk] = Reference{Name: fmt.Sprintf("ref%d", kk), DM: coo.ToCSR()}
		if rng.Float64() < 0.3 {
			src := make([]float64, ns)
			for i := range src {
				src[i] = rng.Float64() * 500
			}
			refs[kk].Source = src
		}
	}
	obj := make([]float64, ns)
	for i := range obj {
		obj[i] = rng.Float64() * 800
	}
	return Problem{Objective: obj, References: refs}
}

func resultsClose(t *testing.T, tag string, got, want *Result, tol float64) {
	t.Helper()
	if len(got.Weights) != len(want.Weights) || len(got.Target) != len(want.Target) {
		t.Fatalf("%s: shape mismatch", tag)
	}
	for k := range want.Weights {
		if math.Abs(got.Weights[k]-want.Weights[k]) > tol {
			t.Fatalf("%s: weight %d = %v, want %v", tag, k, got.Weights[k], want.Weights[k])
		}
	}
	for j := range want.Target {
		if math.Abs(got.Target[j]-want.Target[j]) > tol*(1+math.Abs(want.Target[j])) {
			t.Fatalf("%s: target %d = %v, want %v", tag, j, got.Target[j], want.Target[j])
		}
	}
}

// TestEngineMatchesLegacyAlign drives the Engine and the legacy
// implementation over randomized problems.
func TestEngineMatchesLegacyAlign(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 60; trial++ {
			ns := 1 + rng.Intn(50)
			nt := 1 + rng.Intn(12)
			k := 1 + rng.Intn(5)
			p := engineProblem(rng, ns, nt, k)
			var opts Options
			if trial%5 == 4 {
				opts.FallbackDM = engineProblem(rng, ns, nt, 1).References[0].DM
			}
			want, err := legacyAlign(p, opts)
			if err != nil {
				t.Fatalf("trial %d: legacy: %v", trial, err)
			}
			e, err := NewEngine(p.References, opts)
			if err != nil {
				t.Fatalf("trial %d: NewEngine: %v", trial, err)
			}
			got, err := e.Align(p.Objective)
			if err != nil {
				t.Fatalf("trial %d: engine: %v", trial, err)
			}
			resultsClose(t, fmt.Sprintf("trial %d", trial), got, want, 1e-12)

			// A second call must not be perturbed by scratch reuse.
			got2, err := e.Align(p.Objective)
			if err != nil {
				t.Fatalf("trial %d: second align: %v", trial, err)
			}
			resultsClose(t, fmt.Sprintf("trial %d (warm)", trial), got2, want, 1e-12)
		}
	})
}

// TestEngineAlignAllMatchesSequential compares the batch path against
// per-call Align on the same engine, with and without a fallback. The
// references leave about a third of the source units unsupported, so
// every objective has degenerate rows; the fallback supports only
// some of them. With the fallback, the target mass must equal the
// objective mass minus the rows neither the references nor the
// fallback support.
func TestEngineAlignAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p := engineProblem(rng, 80, 15, 4)
	for k, r := range p.References {
		coo := sparse.NewCOO(80, 15)
		for i := 0; i < 80; i++ {
			if i%3 == 0 {
				continue
			}
			cols, vals := r.DM.Row(i)
			for t, j := range cols {
				coo.Add(i, j, vals[t])
			}
		}
		p.References[k].DM = coo.ToCSR()
	}
	fbCOO := sparse.NewCOO(80, 15)
	for i := 0; i < 80; i++ {
		if i%2 == 0 {
			fbCOO.Add(i, rng.Intn(15), 1+rng.Float64())
			fbCOO.Add(i, rng.Intn(15), 1+rng.Float64())
		}
	}
	fb := fbCOO.ToCSR()
	fbSums := fb.RowSums()

	objectives := make([][]float64, 17)
	for a := range objectives {
		obj := make([]float64, 80)
		for i := range obj {
			obj[i] = rng.Float64() * 100
		}
		objectives[a] = obj
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"fallback", Options{FallbackDM: fb}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(p.References, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := e.AlignAll(objectives, 8)
			if err != nil {
				t.Fatal(err)
			}
			for a, obj := range objectives {
				want, err := e.Align(obj)
				if err != nil {
					t.Fatal(err)
				}
				resultsClose(t, fmt.Sprintf("objective %d", a), batch[a], want, 0)
				if tc.opts.FallbackDM == nil {
					continue
				}
				var in, dropped, out float64
				for i, v := range obj {
					in += v
					if e.rowSupport(i) == 0 && fbSums[i] == 0 {
						dropped += v
					}
				}
				if dropped == 0 || dropped == in {
					t.Fatalf("objective %d: test problem drops %v of %v", a, dropped, in)
				}
				for _, v := range want.Target {
					out += v
				}
				if math.Abs(out-(in-dropped)) > 1e-9*in {
					t.Errorf("objective %d: target mass %v, want %v - %v dropped", a, out, in, dropped)
				}
			}
		})
	}
}

// rowSupport returns source unit i's total across the reference
// crosswalks; zero means the unit is degenerate for every objective.
func (e *Engine) rowSupport(i int) float64 {
	var s float64
	for _, rs := range e.rowSums {
		s += rs[i]
	}
	return s
}

// TestEngineAlignAllError reports the first failure in input order.
func TestEngineAlignAllError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := engineProblem(rng, 10, 4, 2)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objectives := [][]float64{p.Objective, make([]float64, 3), nil, p.Objective}
	results, err := e.AlignAll(objectives, 4)
	if err == nil {
		t.Fatal("mismatched objective accepted")
	}
	if results[0] == nil || results[3] == nil {
		t.Error("valid objectives not aligned alongside failures")
	}
	// The error must name the first bad index (1, the length mismatch).
	if want := "objective 1"; !contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
}

// TestEngineAlignAllNonFinite: an objective holding NaN or ±Inf fails
// with ErrNonFiniteObjective on both paths, and its batch-mates are
// bitwise identical to their solo Align.
func TestEngineAlignAllNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := engineProblem(rng, 30, 7, 3)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		objectives := make([][]float64, 5)
		for a := range objectives {
			obj := make([]float64, 30)
			for i := range obj {
				obj[i] = rng.Float64() * 100
			}
			objectives[a] = obj
		}
		objectives[2][11] = bad
		if _, err := e.Align(objectives[2]); !errors.Is(err, ErrNonFiniteObjective) {
			t.Fatalf("%v: Align err = %v, want ErrNonFiniteObjective", bad, err)
		}
		results, err := e.AlignAll(objectives, 2)
		if !errors.Is(err, ErrNonFiniteObjective) || !contains(err.Error(), "objective 2") {
			t.Fatalf("%v: AlignAll err = %v, want ErrNonFiniteObjective at objective 2", bad, err)
		}
		if results[2] != nil {
			t.Fatalf("%v: non-finite objective produced a result", bad)
		}
		for _, a := range []int{0, 1, 3, 4} {
			want, err := e.Align(objectives[a])
			if err != nil {
				t.Fatal(err)
			}
			resultsClose(t, fmt.Sprintf("%v: objective %d", bad, a), results[a], want, 0)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestEngineAlignWithSources checks that source overrides reproduce an
// engine built with those sources baked in.
func TestEngineAlignWithSources(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	p := engineProblem(rng, 40, 8, 3)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sources := make([][]float64, len(p.References))
	altRefs := append([]Reference(nil), p.References...)
	for k := range sources {
		src := make([]float64, 40)
		for i := range src {
			src[i] = rng.Float64() * 100
		}
		sources[k] = src
		altRefs[k].Source = src
	}
	want, err := Align(Problem{Objective: p.Objective, References: altRefs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.AlignWithSources(p.Objective, sources)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "sources override", got, want, 1e-12)

	// nil entries fall back to the reference's own source.
	got2, err := e.AlignWithSources(p.Objective, make([][]float64, len(p.References)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.Align(p.Objective)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "nil overrides", got2, plain, 0)

	if _, err := e.AlignWithSources(p.Objective, make([][]float64, 1)); err == nil {
		t.Error("wrong override count accepted")
	}
	bad := make([][]float64, len(p.References))
	bad[0] = make([]float64, 7)
	if _, err := e.AlignWithSources(p.Objective, bad); err == nil {
		t.Error("wrong override length accepted")
	}
}

// TestEngineZeroSupportRows checks the Eq. 14 degenerate case on the
// engine: a source unit no reference supports drops its mass, on the
// single and the batch path alike.
func TestEngineZeroSupportRows(t *testing.T) {
	dm0 := mustCSR(t, [][]float64{{1, 1}, {0, 0}, {2, 0}})
	dm1 := mustCSR(t, [][]float64{{2, 0}, {0, 0}, {0, 3}})
	e, err := NewEngine([]Reference{{DM: dm0}, {DM: dm1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	obj := []float64{4, 100, 6}
	single, err := e.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := e.AlignAll([][]float64{obj, obj}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{single, batch[0], batch[1]} {
		if got := res.Target[0] + res.Target[1]; math.Abs(got-10) > 1e-12 {
			t.Errorf("target mass %v, want 10 (unit 1 has no support)", got)
		}
	}
	if e.PatternNNZ() != 4 {
		t.Errorf("PatternNNZ = %d, want 4", e.PatternNNZ())
	}
}

// TestEngineValidation mirrors TestAlignValidation at the Engine level.
func TestEngineValidation(t *testing.T) {
	dm := mustCSR(t, [][]float64{{1, 1}})
	if _, err := NewEngine(nil, Options{}); err != ErrNoReferences {
		t.Errorf("err = %v, want ErrNoReferences", err)
	}
	if _, err := NewEngine([]Reference{{DM: nil}}, Options{}); err == nil {
		t.Error("nil DM accepted")
	}
	dm2 := mustCSR(t, [][]float64{{1, 1, 1}})
	if _, err := NewEngine([]Reference{{DM: dm}, {DM: dm2}}, Options{}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := NewEngine([]Reference{{DM: dm, Source: []float64{1, 2}}}, Options{}); err == nil {
		t.Error("source length mismatch accepted")
	}
	e, err := NewEngine([]Reference{{DM: dm}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Align(nil); err != ErrNoSourceUnits {
		t.Errorf("err = %v, want ErrNoSourceUnits", err)
	}
	if _, err := e.Align([]float64{1, 2}); err == nil {
		t.Error("objective length mismatch accepted")
	}
}

// TestEngineRejectsUntrustedReferences: NewEngine validates every value
// and index it later reads without checks. A crosswalk or Source value
// that is NaN, ±Inf or negative, a column index out of range, or row
// pointers that decrease fail with ErrBadReference instead of
// panicking in the transpose or poisoning every estimate.
func TestEngineRejectsUntrustedReferences(t *testing.T) {
	// valid is a 3×2 crosswalk: rows {0:1, 1:2}, {1:3}, {}.
	valid := func() *sparse.CSR {
		return &sparse.CSR{Rows: 3, Cols: 2, IndPtr: []int{0, 2, 3, 3}, ColIdx: []int{0, 1, 1}, Val: []float64{1, 2, 3}}
	}
	cases := []struct {
		name   string
		mutate func(r *Reference)
	}{
		{"value NaN", func(r *Reference) { r.DM.Val[1] = math.NaN() }},
		{"value +Inf", func(r *Reference) { r.DM.Val[2] = math.Inf(1) }},
		{"value -1", func(r *Reference) { r.DM.Val[0] = -1 }},
		{"source NaN", func(r *Reference) { r.Source = []float64{1, math.NaN(), 0} }},
		{"source +Inf", func(r *Reference) { r.Source = []float64{math.Inf(1), 1, 0} }},
		{"source -1", func(r *Reference) { r.Source = []float64{1, 1, -1} }},
		{"column out of range", func(r *Reference) { r.DM.ColIdx[2] = 2 }},
		{"columns not increasing", func(r *Reference) { r.DM.ColIdx[0], r.DM.ColIdx[1] = 1, 0 }},
		{"indptr not monotone", func(r *Reference) { r.DM.IndPtr[1], r.DM.IndPtr[2] = 3, 2 }},
		{"indptr length", func(r *Reference) { r.DM.IndPtr = r.DM.IndPtr[:3] }},
		{"value count", func(r *Reference) { r.DM.Val = r.DM.Val[:2] }},
	}
	if _, err := NewEngine([]Reference{{Name: "ok", DM: valid()}}, Options{}); err != nil {
		t.Fatalf("valid reference rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := Reference{Name: "bad", DM: valid()}
			tc.mutate(&bad)
			// The bad reference sits second, behind a valid one.
			e, err := NewEngine([]Reference{{Name: "ok", DM: valid()}, bad}, Options{})
			if !errors.Is(err, ErrBadReference) {
				t.Fatalf("err = %v, want ErrBadReference", err)
			}
			if e != nil {
				t.Fatal("rejected references produced an engine")
			}
			if !contains(err.Error(), "reference 1 (bad)") {
				t.Errorf("err = %v, want it to name reference 1 (bad)", err)
			}
		})
	}
}
