package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"geoalign/internal/linalg"
	"geoalign/internal/sparse"
)

func mustCSR(t testing.TB, d [][]float64) *sparse.CSR {
	t.Helper()
	m, err := sparse.FromDense(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// estimatedDM builds the estimated crosswalk of an Align result, failing
// the test on error.
func estimatedDM(t testing.TB, p Problem, res *Result, fallback *sparse.CSR) *sparse.CSR {
	t.Helper()
	dm, err := EstimatedDM(p, res.Weights, fallback)
	if err != nil {
		t.Fatal(err)
	}
	return dm
}

func vecEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// The paper's introduction example: a zip code with 25,000 people split
// 10,000/15,000 between counties A and B; 100 crimes should split 40/60.
func TestDasymetricIntroductionExample(t *testing.T) {
	dm := mustCSR(t, [][]float64{{10000, 15000}})
	got, err := Dasymetric([]float64{100}, Reference{Name: "population", DM: dm})
	if err != nil {
		t.Fatal(err)
	}
	if !vecEq(got, []float64{40, 60}, 1e-9) {
		t.Errorf("crimes = %v, want [40 60]", got)
	}
}

func TestDasymetricZeroRow(t *testing.T) {
	dm := mustCSR(t, [][]float64{
		{1, 1},
		{0, 0}, // unsupported source unit
	})
	got, err := Dasymetric([]float64{10, 7}, Reference{DM: dm})
	if err != nil {
		t.Fatal(err)
	}
	if !vecEq(got, []float64{5, 5}, 1e-9) {
		t.Errorf("target = %v, want [5 5]: unsupported unit must contribute nothing", got)
	}
}

func TestDasymetricErrors(t *testing.T) {
	if _, err := Dasymetric(nil, Reference{}); err == nil {
		t.Error("empty objective accepted")
	}
	if _, err := Dasymetric([]float64{1}, Reference{}); err == nil {
		t.Error("nil DM accepted")
	}
	dm := mustCSR(t, [][]float64{{1}})
	if _, err := Dasymetric([]float64{1, 2}, Reference{DM: dm}); err == nil {
		t.Error("row mismatch accepted")
	}
}

func TestArealWeightingIsUniformSplit(t *testing.T) {
	// 70% of the zip's area in county A, 30% in B (the paper's §1
	// crimes-by-area example).
	dm := mustCSR(t, [][]float64{{0.7, 0.3}})
	got, err := ArealWeighting([]float64{100}, dm)
	if err != nil {
		t.Fatal(err)
	}
	if !vecEq(got, []float64{70, 30}, 1e-9) {
		t.Errorf("crimes = %v, want [70 30]", got)
	}
}

func TestAlignSingleReferenceMatchesDasymetric(t *testing.T) {
	// With one reference GeoAlign's β = [1] and Eq. 14 reduces to the
	// dasymetric redistribution (when Source matches DM row sums).
	dm := mustCSR(t, [][]float64{
		{2, 1, 0},
		{0, 3, 3},
		{5, 0, 5},
	})
	obj := []float64{9, 12, 20}
	res, err := Align(Problem{Objective: obj, References: []Reference{{Name: "r", DM: dm}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Dasymetric(obj, Reference{DM: dm})
	if !vecEq(res.Target, want, 1e-9) {
		t.Errorf("Align = %v, dasymetric = %v", res.Target, want)
	}
	if !vecEq(res.Weights, []float64{1}, 0) {
		t.Errorf("weights = %v, want [1]", res.Weights)
	}
}

func TestAlignRecoversDominantReference(t *testing.T) {
	// Objective is exactly reference 0's distribution; reference 1 is
	// unrelated. GeoAlign should weight reference 0 ≈ 1 and reproduce
	// the true target aggregates.
	dm0 := mustCSR(t, [][]float64{
		{10, 0},
		{4, 6},
		{0, 20},
		{7, 3},
	})
	dm1 := mustCSR(t, [][]float64{
		{0, 3},
		{9, 0},
		{2, 2},
		{0, 8},
	})
	obj := dm0.RowSums() // objective == reference 0 at source level
	res, err := Align(Problem{
		Objective: obj,
		References: []Reference{
			{Name: "good", DM: dm0},
			{Name: "bad", DM: dm1},
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[0] < 0.95 {
		t.Errorf("weights = %v, want β0 ≈ 1", res.Weights)
	}
	want := dm0.ColSums()
	if !vecEq(res.Target, want, 1e-6*floatMax(want)) {
		t.Errorf("target = %v, want %v", res.Target, want)
	}
}

func TestAlignWeightsOnSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 30, 8, 4)
	res, err := Align(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, b := range res.Weights {
		if b < -1e-9 {
			t.Errorf("negative weight %v", b)
		}
		s += b
	}
	if math.Abs(s-1) > 1e-7 {
		t.Errorf("weights sum to %v", s)
	}
}

func TestAlignVolumePreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := randomProblem(rng, 40, 10, 3)
	res, err := Align(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-7 * (1 + floatMax(p.Objective))
	if i := CheckVolumePreserving(estimatedDM(t, p, res, nil), p.Objective, tol); i >= 0 {
		t.Errorf("volume not preserved at row %d", i)
	}
	// Total mass is conserved (every source unit had reference support
	// in randomProblem).
	var in, out float64
	for _, v := range p.Objective {
		in += v
	}
	for _, v := range res.Target {
		out += v
	}
	if math.Abs(in-out) > tol*float64(len(p.Objective)) {
		t.Errorf("mass in %v != mass out %v", in, out)
	}
}

func TestAlignZeroReferenceRowGivesZero(t *testing.T) {
	// Source unit 1 has zero in every reference: Eq. 14 second case.
	dm0 := mustCSR(t, [][]float64{{1, 1}, {0, 0}})
	dm1 := mustCSR(t, [][]float64{{2, 0}, {0, 0}})
	p := Problem{
		Objective:  []float64{10, 99},
		References: []Reference{{DM: dm0}, {DM: dm1}},
	}
	res, err := Align(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cols, vals := estimatedDM(t, p, res, nil).Row(1)
	for k := range cols {
		if vals[k] != 0 {
			t.Errorf("row 1 entry %d = %v, want 0", cols[k], vals[k])
		}
	}
	var total float64
	for _, v := range res.Target {
		total += v
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("total = %v, want 10 (the supported unit only)", total)
	}
}

func TestAlignInconsistentSourceStillPreservesVolume(t *testing.T) {
	// A reference whose published source vector disagrees with its DM:
	// the explicit vector feeds weight learning only, and Eq. 14 scales
	// against the crosswalk's own row sums, so volume is preserved.
	dm := mustCSR(t, [][]float64{{1, 1}})
	p := Problem{
		Objective:  []float64{10},
		References: []Reference{{DM: dm, Source: []float64{4}}},
	}
	res, err := Align(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !vecEq(res.Target, []float64{5, 5}, 1e-9) {
		t.Errorf("target = %v, want [5 5]", res.Target)
	}
	if i := CheckVolumePreserving(estimatedDM(t, p, res, nil), []float64{10}, 1e-9); i >= 0 {
		t.Errorf("volume not preserved at row %d", i)
	}
}

func TestAlignValidation(t *testing.T) {
	dm := mustCSR(t, [][]float64{{1, 1}})
	if _, err := Align(Problem{}, Options{}); err != ErrNoSourceUnits {
		t.Errorf("err = %v, want ErrNoSourceUnits", err)
	}
	if _, err := Align(Problem{Objective: []float64{1}}, Options{}); err != ErrNoReferences {
		t.Errorf("err = %v, want ErrNoReferences", err)
	}
	if _, err := Align(Problem{
		Objective:  []float64{1, 2},
		References: []Reference{{DM: dm}},
	}, Options{}); err == nil {
		t.Error("row mismatch accepted")
	}
	dm2 := mustCSR(t, [][]float64{{1, 1, 1}})
	if _, err := Align(Problem{
		Objective:  []float64{1},
		References: []Reference{{DM: dm}, {DM: dm2}},
	}, Options{}); err == nil {
		t.Error("column mismatch between references accepted")
	}
	if _, err := Align(Problem{
		Objective:  []float64{1},
		References: []Reference{{DM: dm, Source: []float64{1, 2}}},
	}, Options{}); err == nil {
		t.Error("source length mismatch accepted")
	}
	if _, err := Align(Problem{
		Objective:  []float64{1},
		References: []Reference{{DM: nil}},
	}, Options{}); err == nil {
		t.Error("nil DM accepted")
	}
}

// TestAlignProjectedGradientSolverAgrees compares Align's active-set
// weights against the dense projected-gradient oracle in linalg.
func TestAlignProjectedGradientSolverAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := randomProblem(rng, 50, 12, 4)
	r1, err := Align(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := denseSystem(t, p)
	pg, err := linalg.SimplexLeastSquaresPG(a, b, 30000, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &Result{Weights: pg, Target: estimatedDM(t, p, &Result{Weights: pg}, nil).ColSums()}
	// Targets must be close (weights may differ slightly when the
	// optimum is flat, but the induced estimate should agree).
	scale := 1 + floatMax(r1.Target)
	if !vecEq(r1.Target, r2.Target, 5e-3*scale) {
		t.Errorf("solvers disagree:\n  active-set %v\n  proj-grad  %v", r1.Target, r2.Target)
	}
}

// Property: for random consistent problems, GeoAlign conserves total
// mass and preserves per-row volume.
func TestAlignConservationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 5+rng.Intn(40), 2+rng.Intn(8), 1+rng.Intn(5))
		res, err := Align(p, Options{})
		if err != nil {
			return false
		}
		dm, err := EstimatedDM(p, res.Weights, nil)
		if err != nil {
			return false
		}
		tol := 1e-6 * (1 + floatMax(p.Objective))
		if CheckVolumePreserving(dm, p.Objective, tol) >= 0 {
			return false
		}
		var in, out float64
		for _, v := range p.Objective {
			in += v
		}
		for _, v := range res.Target {
			out += v
		}
		return math.Abs(in-out) <= tol*float64(len(p.Objective)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLearnWeightsPrefersCorrelatedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ns, nt := 60, 10
	good := randomDM(rng, ns, nt)
	bad := randomDM(rng, ns, nt)
	obj := good.RowSums()
	// Perturb the objective a little so it is not an exact copy.
	for i := range obj {
		obj[i] *= 1 + 0.05*rng.NormFloat64()
		if obj[i] < 0 {
			obj[i] = 0
		}
	}
	beta, err := LearnWeights(Problem{
		Objective:  obj,
		References: []Reference{{DM: good}, {DM: bad}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if beta[0] < 0.7 {
		t.Errorf("β = %v: correlated reference should dominate", beta)
	}
}

func TestCheckVolumePreservingDetectsViolation(t *testing.T) {
	dm := mustCSR(t, [][]float64{{1, 1}, {3, 3}})
	if i := CheckVolumePreserving(dm, []float64{2, 6}, 1e-9); i != -1 {
		t.Errorf("false positive at row %d", i)
	}
	if i := CheckVolumePreserving(dm, []float64{2, 5}, 1e-9); i != 1 {
		t.Errorf("violation not found, got %d", i)
	}
	// All-zero rows are allowed regardless of the objective.
	dm2 := mustCSR(t, [][]float64{{0, 0}})
	if i := CheckVolumePreserving(dm2, []float64{7}, 1e-9); i != -1 {
		t.Errorf("zero row flagged: %d", i)
	}
}

// --- helpers ---

func floatMax(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// randomDM builds a random non-negative disaggregation matrix where
// every source unit overlaps 1-3 target units and every row has
// positive mass.
func randomDM(rng *rand.Rand, ns, nt int) *sparse.CSR {
	coo := sparse.NewCOO(ns, nt)
	for i := 0; i < ns; i++ {
		k := 1 + rng.Intn(3)
		for c := 0; c < k; c++ {
			coo.Add(i, rng.Intn(nt), 1+rng.Float64()*100)
		}
	}
	return coo.ToCSR()
}

func randomProblem(rng *rand.Rand, ns, nt, nrefs int) Problem {
	refs := make([]Reference, nrefs)
	for k := range refs {
		refs[k] = Reference{DM: randomDM(rng, ns, nt)}
	}
	obj := make([]float64, ns)
	for i := range obj {
		obj[i] = rng.Float64() * 50
	}
	return Problem{Objective: obj, References: refs}
}
