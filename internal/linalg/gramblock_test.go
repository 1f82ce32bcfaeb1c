package linalg

import (
	"math/rand"
	"testing"
)

// blockPartialSums is the oracle for the blocked kernels' arithmetic
// order: for each output slot, every GramBlockRows-row block's terms
// are summed in row order from zero, and the block partials are then
// added in block order. term(i, j) returns row i's term for slot j and
// whether it counts (zero entries are skipped, as the kernels do).
func blockPartialSums(m, n int, term func(i, j int) (float64, bool)) []float64 {
	out := make([]float64, n)
	for j := range out {
		for lo := 0; lo < m; lo += GramBlockRows {
			var part float64
			for i := lo; i < m && i < lo+GramBlockRows; i++ {
				if v, ok := term(i, j); ok {
					part += v
				}
			}
			out[j] += part
		}
	}
	return out
}

// TestGramSystemGramBlockOrder pins G's bits to the block-partial
// reduction, which snapshot bytes and every solve depend on.
func TestGramSystemGramBlockOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m, k := 4*GramBlockRows+321, 5
	a := NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		if rng.Intn(6) == 0 {
			a.Data[i] = 0
		}
	}
	want := blockPartialSums(m, k*k, func(i, t int) (float64, bool) {
		p, q := t/k, t%k
		if q < p {
			p, q = q, p // the kernel sums the upper triangle and mirrors it
		}
		vp := a.At(i, p)
		return vp * a.At(i, q), vp != 0
	})
	got := NewGramSystem(a).Gram()
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("G entry %d = %v, block-order sum %v", i, got.Data[i], want[i])
		}
	}
}

// TestApplyTIntoBlockOrder pins c = Aᵀb's bits to the block-partial
// reduction, including systems wider than one applyTChunk pass.
func TestApplyTIntoBlockOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, k := range []int{1, 7, applyTChunk, applyTChunk + 1, 2*applyTChunk + 5} {
		m := 3*GramBlockRows + 17
		a := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			if rng.Intn(8) != 0 {
				b[i] = rng.NormFloat64()
			}
		}
		want := blockPartialSums(m, k, func(i, j int) (float64, bool) {
			return a.At(i, j) * b[i], b[i] != 0
		})
		got := make([]float64, k)
		NewGramSystem(a).ApplyTInto(got, b)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("k=%d: component %d = %v, block-order sum %v", k, j, got[j], want[j])
			}
		}
	}
}

// TestApplyTIntoAllocationFree pins the per-solve product at zero
// allocations over several blocks, for narrow and multi-pass widths.
func TestApplyTIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(89))
	for _, k := range []int{7, 2*applyTChunk + 5} {
		m := 3*GramBlockRows + 17
		a := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		gs := NewGramSystem(a)
		dst := make([]float64, k)
		if allocs := testing.AllocsPerRun(20, func() { gs.ApplyTInto(dst, b) }); allocs != 0 {
			t.Errorf("k=%d: ApplyTInto made %.1f allocs/op, want 0", k, allocs)
		}
	}
}
