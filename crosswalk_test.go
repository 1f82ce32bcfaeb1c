package geoalign

import (
	"math"
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
