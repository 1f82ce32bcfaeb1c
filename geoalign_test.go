package geoalign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func mustCrosswalk(t testing.TB, d [][]float64) *Crosswalk {
	t.Helper()
	c, err := FromDense(d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCrosswalkBuilder(t *testing.T) {
	c := NewCrosswalk(2, 3)
	if c.SourceUnits() != 2 || c.TargetUnits() != 3 {
		t.Fatalf("dims %dx%d", c.SourceUnits(), c.TargetUnits())
	}
	if err := c.Add(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(1, 2, 7); err != nil {
		t.Fatal(err)
	}
	if got := c.At(0, 1); got != 8 {
		t.Errorf("At = %v, want 8 (accumulated)", got)
	}
	st := c.SourceTotals()
	if st[0] != 8 || st[1] != 7 {
		t.Errorf("SourceTotals = %v", st)
	}
	tt := c.TargetTotals()
	if tt[0] != 0 || tt[1] != 8 || tt[2] != 7 {
		t.Errorf("TargetTotals = %v", tt)
	}
	if c.NonZeros() != 2 {
		t.Errorf("NonZeros = %d", c.NonZeros())
	}
}

func TestCrosswalkAddAfterRead(t *testing.T) {
	c := NewCrosswalk(1, 2)
	if err := c.Add(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	_ = c.At(0, 0) // finalise
	if err := c.Add(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 1 || c.At(0, 1) != 2 {
		t.Errorf("reopened crosswalk lost data: %v %v", c.At(0, 0), c.At(0, 1))
	}
}

func TestCrosswalkAddValidation(t *testing.T) {
	c := NewCrosswalk(1, 1)
	if err := c.Add(0, 0, -1); err == nil {
		t.Error("negative entry accepted")
	}
	if err := c.Add(1, 0, 1); err == nil {
		t.Error("out-of-bounds row accepted")
	}
	if err := c.Add(0, 1, 1); err == nil {
		t.Error("out-of-bounds col accepted")
	}
}

func TestEmptyCrosswalkUsable(t *testing.T) {
	c := NewCrosswalk(2, 2)
	if c.NonZeros() != 0 {
		t.Errorf("NonZeros = %d", c.NonZeros())
	}
	if got := c.SourceTotals(); got[0] != 0 || got[1] != 0 {
		t.Errorf("SourceTotals = %v", got)
	}
}

func TestDasymetricPaperExample(t *testing.T) {
	// §1: zip with 25k people split 10k/15k between counties; 100 crimes
	// split 40/60.
	xw := mustCrosswalk(t, [][]float64{{10000, 15000}})
	got, err := Dasymetric([]float64{100}, Reference{Name: "population", Crosswalk: xw})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-40) > 1e-9 || math.Abs(got[1]-60) > 1e-9 {
		t.Errorf("crimes = %v, want [40 60]", got)
	}
}

func TestArealWeightingPaperExample(t *testing.T) {
	// §1: 70% of the zip's area in county A → 70% of the crimes.
	areas := mustCrosswalk(t, [][]float64{{0.7, 0.3}})
	got, err := ArealWeighting([]float64{100}, areas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-70) > 1e-9 {
		t.Errorf("crimes = %v, want [70 30]", got)
	}
}

func TestAlignEndToEnd(t *testing.T) {
	good := mustCrosswalk(t, [][]float64{
		{10, 0},
		{4, 6},
		{0, 20},
	})
	bad := mustCrosswalk(t, [][]float64{
		{0, 5},
		{9, 0},
		{3, 3},
	})
	objective := good.SourceTotals() // mirrors reference "good" exactly
	res, err := Align(objective, []Reference{
		{Name: "good", Crosswalk: good},
		{Name: "bad", Crosswalk: bad},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[0] < 0.9 {
		t.Errorf("weights = %v, want β(good) ≈ 1", res.Weights)
	}
	want := good.TargetTotals()
	for j := range want {
		if math.Abs(res.Target[j]-want[j]) > 1e-6 {
			t.Errorf("Target[%d] = %v, want %v", j, res.Target[j], want[j])
		}
	}
	// The estimated crosswalk is volume preserving.
	est := res.EstimatedCrosswalk()
	st := est.SourceTotals()
	for i := range objective {
		if math.Abs(st[i]-objective[i]) > 1e-9 {
			t.Errorf("row %d total %v, want %v", i, st[i], objective[i])
		}
	}
}

func TestAlignErrors(t *testing.T) {
	if _, err := Align(nil, nil); err != ErrNoSourceUnits {
		t.Errorf("err = %v, want ErrNoSourceUnits", err)
	}
	if _, err := Align([]float64{1}, nil); err != ErrNoReferences {
		t.Errorf("err = %v, want ErrNoReferences", err)
	}
	if _, err := Align([]float64{1}, []Reference{{Name: "x"}}); err == nil {
		t.Error("nil crosswalk accepted")
	}
	xw := mustCrosswalk(t, [][]float64{{1, 1}})
	if _, err := Align([]float64{1, 2}, []Reference{{Crosswalk: xw}}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestWeightsOnly(t *testing.T) {
	a := mustCrosswalk(t, [][]float64{{1, 0}, {0, 2}, {3, 0}})
	b := mustCrosswalk(t, [][]float64{{5, 0}, {0, 1}, {1, 0}})
	w, err := Weights(a.SourceTotals(), []Reference{{Crosswalk: a}, {Crosswalk: b}})
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, v := range w {
		if v < -1e-12 {
			t.Errorf("negative weight %v", v)
		}
		s += v
	}
	if math.Abs(s-1) > 1e-7 {
		t.Errorf("weights sum to %v", s)
	}
	if w[0] < 0.9 {
		t.Errorf("w = %v, want first reference dominant", w)
	}
}

func TestDasymetricErrors(t *testing.T) {
	if _, err := Dasymetric(nil, Reference{}); err != ErrNoSourceUnits {
		t.Errorf("err = %v", err)
	}
	if _, err := Dasymetric([]float64{1}, Reference{}); err == nil {
		t.Error("nil crosswalk accepted")
	}
}

func TestMetricsReexports(t *testing.T) {
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	if got := NRMSE([]float64{12, 8}, []float64{10, 10}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("NRMSE = %v", got)
	}
}

func TestResultWithoutDM(t *testing.T) {
	r := &Result{}
	if r.EstimatedCrosswalk() != nil {
		t.Error("nil DM produced a crosswalk")
	}
}

// TestGeoAlign3D exercises the paper's dimension-independence claim
// (DESIGN.md experiment TXT2): crosswalking between two incongruent 3-D
// grids needs nothing beyond different crosswalk construction.
func TestGeoAlign3D(t *testing.T) {
	// Source: 2x2x1 grid (4 boxes); target: 1x1x4 grid (4 slabs) over
	// the unit cube. Reference: volume overlap. Objective: uniform
	// density 8 per unit volume.
	// Volume crosswalk: each source box (vol 0.25) overlaps each slab
	// (height 0.25) by 0.25*0.25 = 0.0625.
	xw := NewCrosswalk(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if err := xw.Add(i, j, 0.0625); err != nil {
				t.Fatal(err)
			}
		}
	}
	objective := []float64{2, 2, 2, 2} // 8 * 0.25 volume each
	res, err := Align(objective, []Reference{{Name: "volume", Crosswalk: xw}})
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range res.Target {
		if math.Abs(v-2) > 1e-9 {
			t.Errorf("slab %d = %v, want 2", j, v)
		}
	}
}

func TestAlignWithFallback(t *testing.T) {
	ref := mustCrosswalk(t, [][]float64{
		{1, 1},
		{0, 0}, // unsupported source unit
	})
	area := mustCrosswalk(t, [][]float64{
		{5, 5},
		{2, 8},
	})
	res, err := AlignWithFallback([]float64{10, 20}, []Reference{{Name: "r", Crosswalk: ref}}, area)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5 + 4, 5 + 16}
	for j := range want {
		if math.Abs(res.Target[j]-want[j]) > 1e-9 {
			t.Errorf("Target = %v, want %v", res.Target, want)
		}
	}
	// Without a fallback the unsupported unit's mass is dropped.
	plain, err := Align([]float64{10, 20}, []Reference{{Name: "r", Crosswalk: ref}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Target[0]+plain.Target[1] != 10 {
		t.Errorf("plain Align total = %v, want 10", plain.Target[0]+plain.Target[1])
	}
	// Nil fallback behaves like Align.
	nilFB, err := AlignWithFallback([]float64{10, 20}, []Reference{{Name: "r", Crosswalk: ref}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nilFB.Target[0] != plain.Target[0] {
		t.Error("nil fallback differs from Align")
	}
	checkEstimatedCrosswalk(t, "AlignWithFallback", res, []float64{10, 20})
	checkEstimatedCrosswalk(t, "Align", plain, []float64{10, 20})

	// Randomized problems with unsupported source units, and a fallback
	// that covers only every other one of them: the estimated crosswalk
	// preserves volume, the target mass is the objective's minus the
	// units neither supports, and an Aligner with the same fallback
	// agrees, fused batch path included.
	rng := rand.New(rand.NewSource(1618))
	for trial := 0; trial < 20; trial++ {
		objectives, refs := randomAlignerProblem(t, rng)
		ns, nt := refs[0].Crosswalk.SourceUnits(), refs[0].Crosswalk.TargetUnits()
		fb := NewCrosswalk(ns, nt)
		for i := 0; i < ns; i += 2 {
			if err := fb.Add(i, rng.Intn(nt), 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		al, err := NewAligner(refs, &AlignerOptions{Fallback: fb, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := al.AlignAll(objectives)
		if err != nil {
			t.Fatal(err)
		}
		for a, obj := range objectives {
			tag := fmt.Sprintf("trial %d attr %d", trial, a)
			want, err := AlignWithFallback(obj, refs, fb)
			if err != nil {
				t.Fatal(err)
			}
			checkEstimatedCrosswalk(t, tag, want, obj)
			var in, dropped, out float64
			for i, v := range obj {
				in += v
				supported := i%2 == 0
				for _, r := range refs {
					supported = supported || r.Crosswalk.SourceTotals()[i] != 0
				}
				if !supported {
					dropped += v
				}
			}
			for _, v := range want.Target {
				out += v
			}
			if math.Abs(out-(in-dropped)) > 1e-9*in {
				t.Fatalf("%s: target mass %v, want %v - %v dropped", tag, out, in, dropped)
			}
			single, err := al.Align(obj)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(batch[a], single) {
				t.Fatalf("%s: fused AlignAll differs from Align", tag)
			}
			checkResultPair(t, tag, single, want, obj)
		}
	}
}

func TestFromDenseError(t *testing.T) {
	if _, err := FromDense([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged dense input accepted")
	}
}

func TestWeightsErrors(t *testing.T) {
	if _, err := Weights(nil, nil); err != ErrNoSourceUnits {
		t.Errorf("err = %v", err)
	}
	if _, err := Weights([]float64{1}, nil); err != ErrNoReferences {
		t.Errorf("err = %v", err)
	}
	if _, err := Weights([]float64{1}, []Reference{{}}); err == nil {
		t.Error("nil crosswalk accepted")
	}
	xw := mustCrosswalk(t, [][]float64{{1, 1}})
	if _, err := Weights([]float64{1, 2}, []Reference{{Crosswalk: xw}}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestAlignWithFallbackErrors(t *testing.T) {
	if _, err := AlignWithFallback(nil, nil, nil); err != ErrNoSourceUnits {
		t.Errorf("err = %v", err)
	}
	ref := mustCrosswalk(t, [][]float64{{1, 1}, {0, 0}})
	wrongShape := mustCrosswalk(t, [][]float64{{1, 1, 1}})
	if _, err := AlignWithFallback([]float64{1, 2}, []Reference{{Crosswalk: ref}}, wrongShape); err == nil {
		t.Error("mis-shaped fallback accepted")
	}
}

func TestDasymetricShapeError(t *testing.T) {
	xw := mustCrosswalk(t, [][]float64{{1, 1}})
	if _, err := Dasymetric([]float64{1, 2}, Reference{Crosswalk: xw}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestEmptyFinalizedCrosswalkReopens(t *testing.T) {
	c := NewCrosswalk(1, 1)
	_ = c.At(0, 0) // finalise while empty
	if err := c.Add(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 2 {
		t.Errorf("At = %v", c.At(0, 0))
	}
}
