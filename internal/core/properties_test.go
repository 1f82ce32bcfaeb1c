package core

// Additional algebraic property tests for the crosswalk algorithms.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"geoalign/internal/sparse"
)

// Dasymetric redistribution is linear in the objective vector.
func TestDasymetricLinearityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ns, nt := 5+rng.Intn(20), 2+rng.Intn(8)
		dm := randomDM(rng, ns, nt)
		x := make([]float64, ns)
		y := make([]float64, ns)
		for i := range x {
			x[i] = rng.Float64() * 10
			y[i] = rng.Float64() * 10
		}
		alpha := rng.Float64() * 3
		ref := Reference{DM: dm}
		px, err1 := Dasymetric(x, ref)
		py, err2 := Dasymetric(y, ref)
		comb := make([]float64, ns)
		for i := range comb {
			comb[i] = alpha*x[i] + y[i]
		}
		pc, err3 := Dasymetric(comb, ref)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for j := range pc {
			if math.Abs(pc[j]-(alpha*px[j]+py[j])) > 1e-9*(1+math.Abs(pc[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// With every reference sharing one crosswalk, GeoAlign reduces exactly
// to dasymetric with that crosswalk, whatever weights are learned.
func TestAlignIdenticalReferencesReduceToDasymetric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dm := randomDM(rng, 25, 6)
	obj := make([]float64, 25)
	for i := range obj {
		obj[i] = rng.Float64() * 100
	}
	refs := []Reference{{Name: "a", DM: dm}, {Name: "b", DM: dm}, {Name: "c", DM: dm}}
	res, err := Align(Problem{Objective: obj, References: refs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Dasymetric(obj, Reference{DM: dm})
	if err != nil {
		t.Fatal(err)
	}
	if !vecEq(res.Target, want, 1e-9*(1+floatMax(want))) {
		t.Errorf("Align = %v, dasymetric = %v", res.Target, want)
	}
}

// Duplicating a reference must not change the estimate: weight mass may
// split between the copies, but the induced disaggregation is the same.
func TestAlignDuplicateReferenceInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := Reference{Name: "a", DM: randomDM(rng, 30, 7)}
	b := Reference{Name: "b", DM: randomDM(rng, 30, 7)}
	obj := make([]float64, 30)
	for i := range obj {
		obj[i] = rng.Float64() * 50
	}
	r1, err := Align(Problem{Objective: obj, References: []Reference{a, b}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Align(Problem{Objective: obj, References: []Reference{a, b, b}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The duplicated reference's weight may be split arbitrarily between
	// its two copies, but the reconstructed share mixture — and hence
	// the estimate — must agree.
	if !vecEq(r1.Target, r2.Target, 1e-5*(1+floatMax(r1.Target))) {
		t.Errorf("duplicate reference changed estimate:\n%v\n%v", r1.Target, r2.Target)
	}
	if math.Abs((r2.Weights[1]+r2.Weights[2])-r1.Weights[1]) > 1e-5 {
		t.Errorf("combined duplicate weight %v != original %v",
			r2.Weights[1]+r2.Weights[2], r1.Weights[1])
	}
}

// Scaling every value of one reference by a positive constant leaves
// the estimate unchanged (the §3.4 normalisation requirement).
func TestAlignReferenceScaleInvarianceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ns, nt := 8+rng.Intn(20), 2+rng.Intn(6)
		a := randomDM(rng, ns, nt)
		b := randomDM(rng, ns, nt)
		obj := make([]float64, ns)
		for i := range obj {
			obj[i] = rng.Float64() * 20
		}
		r1, err := Align(Problem{Objective: obj, References: []Reference{{DM: a}, {DM: b}}}, Options{})
		if err != nil {
			return false
		}
		c := 1e-3 + rng.Float64()*1e6
		scaled := a.Clone().Scale(c)
		r2, err := Align(Problem{Objective: obj, References: []Reference{{DM: scaled}, {DM: b}}}, Options{})
		if err != nil {
			return false
		}
		return vecEq(r1.Target, r2.Target, 1e-6*(1+floatMax(r1.Target)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The degenerate all-references-zero problem returns an all-zero
// estimate rather than failing.
func TestAlignAllZeroReferences(t *testing.T) {
	dm := sparse.NewEmptyCSR(3, 2)
	res, err := Align(Problem{
		Objective:  []float64{1, 2, 3},
		References: []Reference{{DM: dm}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range res.Target {
		if v != 0 {
			t.Errorf("Target[%d] = %v, want 0", j, v)
		}
	}
}

// A zero objective yields a zero estimate with any references.
func TestAlignZeroObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	res, err := Align(Problem{
		Objective:  make([]float64, 10),
		References: []Reference{{DM: randomDM(rng, 10, 4)}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range res.Target {
		if v != 0 {
			t.Errorf("Target[%d] = %v, want 0", j, v)
		}
	}
}

// Negative entries in the objective are passed through proportionally:
// the method is share-based and sign-agnostic per source unit (the
// paper's attributes are counts, but nothing in the algebra requires
// it; volume is still preserved).
func TestAlignNegativeObjectiveVolumePreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	dm := randomDM(rng, 8, 3)
	obj := []float64{5, -2, 3, 0, -1, 4, 2, 1}
	p := Problem{Objective: obj, References: []Reference{{DM: dm}}}
	res, err := Align(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sums := estimatedDM(t, p, res, nil).RowSums()
	for i := range obj {
		if math.Abs(sums[i]-obj[i]) > 1e-9 {
			t.Errorf("row %d: %v != %v", i, sums[i], obj[i])
		}
	}
}

// With a fallback crosswalk, degenerate source units redistribute by it
// instead of dropping their mass.
func TestAlignFallbackDM(t *testing.T) {
	dm0 := mustCSR(t, [][]float64{{1, 1}, {0, 0}})
	area := mustCSR(t, [][]float64{{5, 5}, {2, 8}})
	p := Problem{
		Objective:  []float64{10, 20},
		References: []Reference{{DM: dm0}},
	}
	res, err := Align(p, Options{FallbackDM: area})
	if err != nil {
		t.Fatal(err)
	}
	// Unit 0 splits 5/5 by the reference; unit 1 falls back to area 2:8.
	want := []float64{5 + 4, 5 + 16}
	if !vecEq(res.Target, want, 1e-9) {
		t.Errorf("target = %v, want %v", res.Target, want)
	}
	if i := CheckVolumePreserving(estimatedDM(t, p, res, area), []float64{10, 20}, 1e-9); i >= 0 {
		t.Errorf("volume broken at row %d", i)
	}
}

// A fallback with zero support in the degenerate unit still drops it.
func TestAlignFallbackDMNoSupport(t *testing.T) {
	dm0 := mustCSR(t, [][]float64{{1, 1}, {0, 0}})
	fb := mustCSR(t, [][]float64{{1, 0}, {0, 0}})
	res, err := Align(Problem{
		Objective:  []float64{10, 20},
		References: []Reference{{DM: dm0}},
	}, Options{FallbackDM: fb})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range res.Target {
		total += v
	}
	if total != 10 {
		t.Errorf("total = %v, want 10", total)
	}
}

// A mis-shaped fallback is rejected.
func TestAlignFallbackDMShapeError(t *testing.T) {
	dm0 := mustCSR(t, [][]float64{{1, 1}, {0, 0}})
	fb := mustCSR(t, [][]float64{{1, 1, 1}, {1, 1, 1}})
	if _, err := Align(Problem{
		Objective:  []float64{10, 20},
		References: []Reference{{DM: dm0}},
	}, Options{FallbackDM: fb}); err == nil {
		t.Error("mis-shaped fallback accepted")
	}
	// But an unused mis-shaped fallback (no degenerate rows) is ignored.
	if _, err := Align(Problem{
		Objective:  []float64{10, 20},
		References: []Reference{{DM: mustCSR(t, [][]float64{{1, 1}, {2, 2}})}},
	}, Options{FallbackDM: fb}); err != nil {
		t.Errorf("unused fallback rejected: %v", err)
	}
}
