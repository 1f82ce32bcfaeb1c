package geoalign

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// These are regression tests for the Crosswalk lazy-CSR cache: every
// read accessor finalises the COO buffer into a CSR, and a subsequent
// Add must invalidate that cache (rebuilding from the CSR when the
// crosswalk was created already-finalised, e.g. by FromDense).

// TestCrosswalkAddInvalidatesEveryAccessor reads through each accessor
// that lazily builds the CSR, Adds afterwards, and checks the accessor
// reflects the new entry rather than a stale cache.
func TestCrosswalkAddInvalidatesEveryAccessor(t *testing.T) {
	reads := map[string]func(c *Crosswalk) float64{
		"At":           func(c *Crosswalk) float64 { return c.At(0, 0) },
		"SourceTotals": func(c *Crosswalk) float64 { return c.SourceTotals()[0] },
		"TargetTotals": func(c *Crosswalk) float64 { return c.TargetTotals()[1] },
		"NonZeros":     func(c *Crosswalk) float64 { return float64(c.NonZeros()) },
	}
	for name, read := range reads {
		c := NewCrosswalk(2, 2)
		if err := c.Add(0, 0, 5); err != nil {
			t.Fatal(err)
		}
		read(c) // builds and caches the CSR
		if err := c.Add(1, 1, 7); err != nil {
			t.Fatalf("%s: Add after read: %v", name, err)
		}
		if got := c.At(1, 1); got != 7 {
			t.Errorf("%s: stale cache, At(1,1) = %v, want 7", name, got)
		}
		if got := c.At(0, 0); got != 5 {
			t.Errorf("%s: reopened crosswalk lost entry, At(0,0) = %v, want 5", name, got)
		}
		if got := c.NonZeros(); got != 2 {
			t.Errorf("%s: NonZeros = %d, want 2", name, got)
		}
	}
}

// TestCrosswalkFromDenseThenAdd covers the born-finalised path: a
// FromDense crosswalk has no COO buffer, so Add must rebuild one from
// the CSR without losing or reordering entries.
func TestCrosswalkFromDenseThenAdd(t *testing.T) {
	c, err := FromDense([][]float64{
		{1, 0, 2},
		{0, 0, 0},
		{3, 4, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(1, 1, 9); err != nil {
		t.Fatalf("Add on FromDense crosswalk: %v", err)
	}
	// Accumulate onto an existing cell too.
	if err := c.Add(0, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{1.5, 0, 2},
		{0, 9, 0},
		{3, 4, 0},
	}
	for i := range want {
		for j := range want[i] {
			if got := c.At(i, j); got != want[i][j] {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
	if got := c.NonZeros(); got != 5 {
		t.Errorf("NonZeros = %d, want 5", got)
	}
}

// TestCrosswalkReopenKeepsAccumulatedValues: a read finalises the
// crosswalk and releases its COO buffer, so the next Add reopens it from
// the CSR. Entries accumulated across such reopenings must read back
// bit for bit as in a crosswalk built without reads in between, for
// cells summed from values whose float sum depends on grouping.
func TestCrosswalkReopenKeepsAccumulatedValues(t *testing.T) {
	entries := []struct {
		i, j int
		v    float64
	}{
		{0, 0, 0.1}, {1, 2, 1e16}, {0, 0, 0.2}, {1, 2, 1}, {2, 1, 3}, {0, 0, 0.3}, {1, 2, 1},
	}
	clean := NewCrosswalk(3, 3)
	reopened := NewCrosswalk(3, 3)
	for n, e := range entries {
		if err := clean.Add(e.i, e.j, e.v); err != nil {
			t.Fatal(err)
		}
		if err := reopened.Add(e.i, e.j, e.v); err != nil {
			t.Fatal(err)
		}
		if n%2 == 0 {
			reopened.NonZeros()
		} else {
			reopened.At(e.i, e.j)
		}
		if reopened.coo != nil {
			t.Fatalf("after entry %d: COO buffer kept beside the built CSR", n)
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got, want := reopened.At(i, j), clean.At(i, j); got != want {
				t.Errorf("At(%d,%d) = %v after reopenings, want %v", i, j, got, want)
			}
		}
	}
	if got, want := reopened.NonZeros(), clean.NonZeros(); got != want {
		t.Errorf("NonZeros = %d after reopenings, want %d", got, want)
	}
}

// TestCrosswalkAddAfterReadAlignConsistent checks the property end to
// end: a crosswalk built incrementally with reads interleaved must
// align identically to one built in a single pass.
func TestCrosswalkAddAfterReadAlignConsistent(t *testing.T) {
	entries := []struct {
		i, j int
		v    float64
	}{
		{0, 0, 2}, {0, 1, 1}, {1, 1, 4}, {2, 0, 3}, {2, 1, 3}, {1, 0, 1},
	}
	interleaved := NewCrosswalk(3, 2)
	clean := NewCrosswalk(3, 2)
	for n, e := range entries {
		if err := clean.Add(e.i, e.j, e.v); err != nil {
			t.Fatal(err)
		}
		if n == 2 || n == 4 {
			interleaved.SourceTotals() // force a finalise mid-build
		}
		if err := interleaved.Add(e.i, e.j, e.v); err != nil {
			t.Fatal(err)
		}
	}
	objective := []float64{10, 20, 30}
	a, err := Align(objective, []Reference{{Name: "r", Crosswalk: interleaved}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Align(objective, []Reference{{Name: "r", Crosswalk: clean}})
	if err != nil {
		t.Fatal(err)
	}
	for j := range b.Target {
		if math.Abs(a.Target[j]-b.Target[j]) > 1e-15 {
			t.Errorf("target[%d]: interleaved %v != clean %v", j, a.Target[j], b.Target[j])
		}
	}
}

// TestEstimatedCrosswalkDetached: Adding to the crosswalk returned by
// EstimatedCrosswalk must not mutate the Result it came from.
func TestEstimatedCrosswalkDetached(t *testing.T) {
	xw := NewCrosswalk(2, 2)
	for _, e := range []struct {
		i, j int
		v    float64
	}{{0, 0, 1}, {0, 1, 1}, {1, 0, 2}} {
		if err := xw.Add(e.i, e.j, e.v); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Align([]float64{6, 8}, []Reference{{Name: "r", Crosswalk: xw}})
	if err != nil {
		t.Fatal(err)
	}
	est := res.EstimatedCrosswalk()
	before := est.At(0, 0)
	if err := est.Add(0, 0, 100); err != nil {
		t.Fatalf("Add on estimated crosswalk: %v", err)
	}
	if got := est.At(0, 0); got != before+100 {
		t.Errorf("estimated crosswalk At(0,0) = %v, want %v", got, before+100)
	}
	// A fresh snapshot from the Result must be untouched.
	if got := res.EstimatedCrosswalk().At(0, 0); got != before {
		t.Errorf("Result mutated through EstimatedCrosswalk: At(0,0) = %v, want %v", got, before)
	}
}

// TestCrosswalkAddRejectsNonFinite: NaN and ±Inf entries are refused
// like negative ones and leave the crosswalk untouched, so an Aligner
// built from it never sees them. (A NaN entry used to be accepted, and
// the aligner then returned a NaN target with a nil error.)
func TestCrosswalkAddRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		a := NewCrosswalk(2, 2)
		b := NewCrosswalk(2, 2)
		for _, e := range []struct {
			xw   *Crosswalk
			i, j int
			v    float64
		}{{a, 0, 0, 1}, {a, 1, 1, 2}, {b, 0, 1, 1}, {b, 1, 0, 2}} {
			if err := e.xw.Add(e.i, e.j, e.v); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Add(1, 0, bad); err == nil {
			t.Fatalf("Add accepted %v", bad)
		}
		if a.NonZeros() != 2 || a.At(1, 0) != 0 {
			t.Fatalf("rejected %v changed the crosswalk: %d entries", bad, a.NonZeros())
		}
		al, err := NewAligner([]Reference{{Name: "a", Crosswalk: a}, {Name: "b", Crosswalk: b}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := al.Align([]float64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range append(res.Target, res.Weights...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("after rejecting %v: result %v %v is not finite", bad, res.Target, res.Weights)
			}
		}
	}
}

// TestKernelsHostIndependent checks that crosswalk totals and Align
// results do not depend on GOMAXPROCS: every kernel runs on its
// caller's goroutine in a fixed order, so a crosswalk of more than
// 32768 non-zeros over more than 8192 source units gives the same bits
// on one P and on four. It changes GOMAXPROCS and must not run in
// parallel with other tests.
func TestKernelsHostIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	ns, nt := 12000, 300
	refs := make([]Reference, 3)
	for k := range refs {
		xw := NewCrosswalk(ns, nt)
		for i := 0; i < ns; i++ {
			for d := 0; d < 3; d++ {
				if err := xw.Add(i, rng.Intn(nt), rng.Float64()*100); err != nil {
					t.Fatal(err)
				}
			}
		}
		refs[k] = Reference{Name: fmt.Sprintf("ref%d", k), Crosswalk: xw}
	}
	if nnz := refs[0].Crosswalk.NonZeros(); nnz <= 1<<15 {
		t.Fatalf("crosswalk has %d non-zeros, want more than %d", nnz, 1<<15)
	}
	objective := make([]float64, ns)
	for i := range objective {
		objective[i] = rng.Float64() * 1000
	}
	type outputs struct{ source, target, weights, aligned []float64 }
	run := func(procs int) outputs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		al, err := NewAligner(refs, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := al.Align(objective)
		if err != nil {
			t.Fatal(err)
		}
		return outputs{refs[0].Crosswalk.SourceTotals(), refs[0].Crosswalk.TargetTotals(), res.Weights, res.Target}
	}
	one, four := run(1), run(4)
	for _, c := range []struct {
		name     string
		at1, at4 []float64
	}{
		{"SourceTotals", one.source, four.source},
		{"TargetTotals", one.target, four.target},
		{"Align weights", one.weights, four.weights},
		{"Align target", one.aligned, four.aligned},
	} {
		for j := range c.at1 {
			if math.Float64bits(c.at1[j]) != math.Float64bits(c.at4[j]) {
				t.Fatalf("%s[%d]: %v at GOMAXPROCS 1, %v at 4", c.name, j, c.at1[j], c.at4[j])
			}
		}
	}
}
