package geoalign

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"geoalign/internal/core"
)

// randomAlignerProblem builds a randomized objective batch plus
// references with varying sizes, sparsity, explicit zero-support rows
// and occasional single-reference cases. Crosswalks are built through
// the public Add path so the lazy-CSR machinery is exercised too.
func randomAlignerProblem(t *testing.T, rng *rand.Rand) (objectives [][]float64, refs []Reference) {
	t.Helper()
	ns := 1 + rng.Intn(60)
	nt := 1 + rng.Intn(14)
	k := 1 + rng.Intn(4)
	zeroRowProb := rng.Float64() * 0.3
	refs = make([]Reference, k)
	for kk := 0; kk < k; kk++ {
		xw := NewCrosswalk(ns, nt)
		for i := 0; i < ns; i++ {
			if rng.Float64() < zeroRowProb {
				continue
			}
			deg := 1 + rng.Intn(3)
			for d := 0; d < deg; d++ {
				if err := xw.Add(i, rng.Intn(nt), rng.Float64()*1000); err != nil {
					t.Fatal(err)
				}
			}
		}
		refs[kk] = Reference{Name: fmt.Sprintf("ref%d", kk), Crosswalk: xw}
		if rng.Float64() < 0.25 {
			src := make([]float64, ns)
			for i := range src {
				src[i] = rng.Float64() * 400
			}
			refs[kk].Source = src
		}
	}
	nAttrs := 1 + rng.Intn(8)
	objectives = make([][]float64, nAttrs)
	for a := range objectives {
		obj := make([]float64, ns)
		for i := range obj {
			obj[i] = rng.Float64() * 900
		}
		objectives[a] = obj
	}
	return objectives, refs
}

// alignSerialOracle loops the one-shot package Align per objective —
// the pre-Aligner behaviour. Its results carry the estimated crosswalk.
func alignSerialOracle(t *testing.T, objectives [][]float64, refs []Reference) []*Result {
	t.Helper()
	out := make([]*Result, len(objectives))
	for a, obj := range objectives {
		res, err := Align(obj, refs)
		if err != nil {
			t.Fatal(err)
		}
		out[a] = res
	}
	return out
}

func checkResultPair(t *testing.T, tag string, got, want *Result, objective []float64) {
	t.Helper()
	const tol = 1e-12
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("%s: weight count %d != %d", tag, len(got.Weights), len(want.Weights))
	}
	for k := range want.Weights {
		if math.Abs(got.Weights[k]-want.Weights[k]) > tol {
			t.Fatalf("%s: weights[%d] = %v, want %v", tag, k, got.Weights[k], want.Weights[k])
		}
	}
	if len(got.Target) != len(want.Target) {
		t.Fatalf("%s: target length %d != %d", tag, len(got.Target), len(want.Target))
	}
	for j := range want.Target {
		if math.Abs(got.Target[j]-want.Target[j]) > tol*(1+math.Abs(want.Target[j])) {
			t.Fatalf("%s: target[%d] = %v, want %v", tag, j, got.Target[j], want.Target[j])
		}
	}
	// Aligner results never carry a crosswalk; the package Align's does.
	if got.dm != nil {
		t.Fatalf("%s: Aligner result carries an estimated crosswalk", tag)
	}
	checkEstimatedCrosswalk(t, tag, want, objective)
}

// checkEstimatedCrosswalk checks a package Align result's estimated
// crosswalk: every supported source unit's row sums back to its
// objective aggregate (Eq. 16), and its column sums are the target
// (Eq. 17) within 1e-9 relative.
func checkEstimatedCrosswalk(t *testing.T, tag string, res *Result, objective []float64) {
	t.Helper()
	if res.dm == nil {
		t.Fatalf("%s: no estimated crosswalk", tag)
	}
	if i := core.CheckVolumePreserving(res.dm, objective, 1e-7*(1+maxAbs(objective))); i >= 0 {
		t.Fatalf("%s: volume not preserved at row %d", tag, i)
	}
	for j, v := range res.dm.ColSums() {
		if math.Abs(v-res.Target[j]) > 1e-9*(1+math.Abs(res.Target[j])) {
			t.Fatalf("%s: crosswalk column %d sums to %v, target %v", tag, j, v, res.Target[j])
		}
	}
}

func maxAbs(v []float64) float64 {
	var mx float64
	for _, x := range v {
		if math.Abs(x) > mx {
			mx = math.Abs(x)
		}
	}
	return mx
}

// TestAlignerAlignAllMatchesSerialAlign is the equivalence property
// test: for randomized problems, the batch Aligner reproduces the
// serial per-call core.Align loop — Weights, Target and volume
// preservation — within 1e-12.
func TestAlignerAlignAllMatchesSerialAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	for trial := 0; trial < 40; trial++ {
		objectives, refs := randomAlignerProblem(t, rng)
		want := alignSerialOracle(t, objectives, refs)

		al, err := NewAligner(refs, &AlignerOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := al.AlignAll(objectives)
		if err != nil {
			t.Fatal(err)
		}
		for a := range objectives {
			checkResultPair(t, fmt.Sprintf("trial %d attr %d", trial, a), got[a], want[a], objectives[a])
		}

		// Single-attribute path agrees too.
		one, err := al.Align(objectives[0])
		if err != nil {
			t.Fatal(err)
		}
		checkResultPair(t, fmt.Sprintf("trial %d single", trial), one, want[0], objectives[0])
	}
}

// TestAlignerConcurrentUse hammers one shared Aligner from 8 goroutines
// — mixed Align and AlignAll calls — and checks every result against
// the serial expectation. Guards the per-worker scratch invariant under
// the race detector.
func TestAlignerConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(1618))
	ns, nt := 120, 17
	refs := make([]Reference, 3)
	for kk := range refs {
		xw := NewCrosswalk(ns, nt)
		for i := 0; i < ns; i++ {
			if i%11 == kk { // a few zero-support rows per reference
				continue
			}
			for d := 0; d <= rng.Intn(3); d++ {
				if err := xw.Add(i, rng.Intn(nt), rng.Float64()*100); err != nil {
					t.Fatal(err)
				}
			}
		}
		refs[kk] = Reference{Name: fmt.Sprintf("ref%d", kk), Crosswalk: xw}
	}
	objectives := make([][]float64, 16)
	for a := range objectives {
		obj := make([]float64, ns)
		for i := range obj {
			obj[i] = rng.Float64() * 1000
		}
		objectives[a] = obj
	}

	al, err := NewAligner(refs, &AlignerOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := al.AlignAll(objectives)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				if (g+rep)%3 == 0 {
					// Whole-batch call.
					got, err := al.AlignAll(objectives)
					if err != nil {
						errCh <- err
						return
					}
					for a := range objectives {
						if !sameResult(got[a], want[a]) {
							errCh <- fmt.Errorf("goroutine %d rep %d: AlignAll attr %d diverged", g, rep, a)
							return
						}
					}
					continue
				}
				a := (g*7 + rep) % len(objectives)
				got, err := al.Align(objectives[a])
				if err != nil {
					errCh <- err
					return
				}
				if !sameResult(got, want[a]) {
					errCh <- fmt.Errorf("goroutine %d rep %d: Align attr %d diverged", g, rep, a)
					return
				}
			}
			errCh <- nil
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sameResult reports bitwise-identical Target and Weights — concurrent
// repetitions of the same deterministic solve must not diverge at all.
func sameResult(a, b *Result) bool {
	if len(a.Target) != len(b.Target) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Target {
		if a.Target[i] != b.Target[i] {
			return false
		}
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			return false
		}
	}
	return true
}

// TestAlignerOptions covers validation, fallback parity with
// AlignWithFallback, and the crosswalk-free Aligner results.
func TestAlignerOptions(t *testing.T) {
	if _, err := NewAligner(nil, nil); err != ErrNoReferences {
		t.Errorf("err = %v, want ErrNoReferences", err)
	}
	if _, err := NewAligner([]Reference{{Name: "x"}}, nil); err == nil {
		t.Error("nil crosswalk accepted")
	}

	// Reference with support only in unit 0; unit 1 is degenerate.
	xw := NewCrosswalk(2, 2)
	if err := xw.Add(0, 0, 3); err != nil {
		t.Fatal(err)
	}
	area := NewCrosswalk(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if err := area.Add(i, j, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	refs := []Reference{{Name: "r", Crosswalk: xw}}
	objective := []float64{10, 20}

	want, err := AlignWithFallback(objective, refs, area)
	if err != nil {
		t.Fatal(err)
	}
	al, err := NewAligner(refs, &AlignerOptions{Fallback: area})
	if err != nil {
		t.Fatal(err)
	}
	got, err := al.Align(objective)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Errorf("fallback Aligner = %v, want %v", got.Target, want.Target)
	}
	checkEstimatedCrosswalk(t, "AlignWithFallback", want, objective)

	// Aligner results carry no estimated crosswalk.
	al2, err := NewAligner(refs, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := al2.Align(objective)
	if err != nil {
		t.Fatal(err)
	}
	if got.EstimatedCrosswalk() != nil || res.EstimatedCrosswalk() != nil {
		t.Error("Aligner result carries a crosswalk")
	}

	// Objective validation at call time.
	if _, err := al.Align(nil); err != ErrNoSourceUnits {
		t.Errorf("err = %v, want ErrNoSourceUnits", err)
	}
	if _, err := al.Align([]float64{1, 2, 3}); err == nil {
		t.Error("objective length mismatch accepted")
	}
	nan := []float64{10, math.NaN()}
	if _, err := al.Align(nan); err != ErrNonFiniteObjective {
		t.Errorf("err = %v, want ErrNonFiniteObjective", err)
	}
	if _, err := al.AlignAll([][]float64{objective, nan}); err != ErrNonFiniteObjective {
		t.Errorf("AlignAll err = %v, want ErrNonFiniteObjective", err)
	}
	if _, err := Align(nan, refs); err != ErrNonFiniteObjective {
		t.Errorf("package Align err = %v, want ErrNonFiniteObjective", err)
	}
	if _, err := Weights(nan, refs); err != ErrNonFiniteObjective {
		t.Errorf("package Weights err = %v, want ErrNonFiniteObjective", err)
	}

	// Weights on the Aligner match the package-level Weights.
	w1, err := al.Weights(objective)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Weights(objective, refs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Errorf("Weights diverge: %v vs %v", w1, w2)
		}
	}
}

// TestAlignerSnapshotsCrosswalks: mutating a crosswalk after NewAligner
// must not change the aligner's results.
func TestAlignerSnapshotsCrosswalks(t *testing.T) {
	xw := NewCrosswalk(2, 2)
	if err := xw.Add(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := xw.Add(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	refs := []Reference{{Name: "r", Crosswalk: xw}}
	al, err := NewAligner(refs, nil)
	if err != nil {
		t.Fatal(err)
	}
	objective := []float64{4, 6}
	before, err := al.Align(objective)
	if err != nil {
		t.Fatal(err)
	}
	if err := xw.Add(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	after, err := al.Align(objective)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(before, after) {
		t.Error("Aligner result changed after Crosswalk.Add")
	}
}
