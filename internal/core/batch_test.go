package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"geoalign/internal/sparse"
)

// TestEngineBatchBitIdentical pins the serving contract: AlignAll must
// be bitwise identical to per-call Align, for one and several workers
// and batch sizes on both sides of sixteen.
func TestEngineBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 15, 16, 17, 53} {
		for _, workers := range []int{1, 3} {
			p := engineProblem(rng, 60, 13, 5)
			e, err := NewEngine(p.References, Options{})
			if err != nil {
				t.Fatal(err)
			}
			objectives := make([][]float64, n)
			for a := range objectives {
				obj := make([]float64, 60)
				for i := range obj {
					obj[i] = rng.Float64() * 50
				}
				objectives[a] = obj
			}
			batch, err := e.AlignAll(objectives, workers)
			if err != nil {
				t.Fatal(err)
			}
			for a, obj := range objectives {
				want, err := e.Align(obj)
				if err != nil {
					t.Fatal(err)
				}
				resultsClose(t, fmt.Sprintf("n=%d workers=%d objective %d", n, workers, a), batch[a], want, 0)
			}
		}
	}
}

// TestEngineWarmStartResultNeutral pins the lone path's warm start: a
// solve seeded from the β its pooled scratch kept from an earlier Align
// matches a fresh engine's bit for bit, and neither a rejected
// objective nor a source-override solve may replace the stored β.
// References 0 and 1 are identical, so the optimum is not unique: a
// cold solve puts the shared weight on reference 0, and one seeded from
// a β that holds reference 1 instead (as a solve that overrides
// reference 0's source returns) keeps it there. A stored override β
// therefore changes the next plain result. The test runs on one P, so
// a sequential Align takes back the scratch its predecessor returned,
// and repeats the sequence because the race detector's pool randomly
// drops a returned scratch.
func TestEngineWarmStartResultNeutral(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	shared := mustCSR(t, [][]float64{{4, 1, 0}, {0, 3, 1}, {2, 0, 2}, {1, 1, 1}, {0, 0, 5}, {3, 2, 0}})
	other := mustCSR(t, [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	refs := []Reference{{Name: "a", DM: shared}, {Name: "b", DM: shared}, {Name: "c", DM: other}}
	objA := []float64{5.5, 4.5, 4, 3.5, 5, 5}
	objB := []float64{10, 8, 8, 6, 10, 10} // twice the shared row sums: an exact fit
	override := [][]float64{{0, 0, 0, 9, 0, 0}, nil, nil}

	freshEngine, err := NewEngine(refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshEngine.Align(objB)
	if err != nil {
		t.Fatal(err)
	}
	if !(want.Weights[0] > 0) || want.Weights[1] != 0 {
		t.Fatalf("cold weights %v: want the shared weight on reference 0", want.Weights)
	}

	e, err := NewEngine(refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAlign := func(obj []float64) *Result {
		t.Helper()
		res, err := e.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mustAlign(objA)
	resultsClose(t, "Align(B) after Align(A)", mustAlign(objB), want, 0)

	nan := append([]float64(nil), objB...)
	nan[2] = math.NaN()
	for round := 0; round < 8; round++ {
		if _, err := e.Align(nan); err == nil {
			t.Fatal("NaN objective accepted")
		}
		resultsClose(t, "Align(B) after a rejected objective", mustAlign(objB), want, 0)

		ov, err := e.AlignWithSources(objB, override)
		if err != nil {
			t.Fatal(err)
		}
		if ov.Weights[0] != 0 || !(ov.Weights[1] > 0) {
			t.Fatalf("override weights %v: want the shared weight on reference 1", ov.Weights)
		}
		resultsClose(t, "Align(B) after AlignWithSources", mustAlign(objB), want, 0)
	}
}

// TestEngineAlignContextCancelled checks the single-call cancellation
// points: a cancelled context yields ctx.Err() and no result.
func TestEngineAlignContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := engineProblem(rng, 20, 6, 3)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.AlignContext(ctx, p.Objective)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled AlignContext returned a result")
	}
	// And the uncancelled call matches plain Align bit for bit.
	got, err := e.AlignContext(context.Background(), p.Objective)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Align(p.Objective)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, "uncancelled context", got, want, 0)
}

// TestEngineAlignAllContextCancelled checks the batch cancellation
// contract: a cancelled context returns ctx.Err() partial-free, both
// when cancelled up front and when cancelled mid-flight.
func TestEngineAlignAllContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := engineProblem(rng, 200, 20, 4)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objectives := make([][]float64, 96)
	for a := range objectives {
		obj := make([]float64, 200)
		for i := range obj {
			obj[i] = rng.Float64() * 10
		}
		objectives[a] = obj
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := e.AlignAllContext(ctx, objectives, 2)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatal("cancelled AlignAllContext returned results")
	}

	// Mid-flight: cancel concurrently. The call must either complete
	// fully or report the cancellation with no results at all.
	for trial := 0; trial < 20; trial++ {
		delay := time.Duration(rng.Intn(300)) * time.Microsecond
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		results, err := e.AlignAllContext(ctx, objectives, 2)
		switch err {
		case nil:
			for a, r := range results {
				if r == nil {
					t.Fatalf("trial %d: completed batch missing result %d", trial, a)
				}
			}
		case context.Canceled:
			if results != nil {
				t.Fatalf("trial %d: cancelled batch returned results", trial)
			}
		default:
			t.Fatalf("trial %d: err = %v", trial, err)
		}
		cancel()
	}
}

// TestEngineAlignAllFastPathErrors mirrors TestEngineAlignAllError on a
// batch of nineteen over two workers: invalid objectives are reported
// in input order while valid ones still align.
func TestEngineAlignAllFastPathErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := engineProblem(rng, 30, 8, 3)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objectives := make([][]float64, 19)
	for a := range objectives {
		objectives[a] = p.Objective
	}
	objectives[2] = make([]float64, 5) // wrong length
	objectives[17] = nil               // empty

	results, err := e.AlignAll(objectives, 2)
	if err == nil {
		t.Fatal("invalid objectives accepted")
	}
	if want := "objective 2"; !contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
	want, err2 := e.Align(p.Objective)
	if err2 != nil {
		t.Fatal(err2)
	}
	for a, r := range results {
		if a == 2 || a == 17 {
			if r != nil {
				t.Errorf("invalid objective %d produced a result", a)
			}
			continue
		}
		if r == nil {
			t.Fatalf("valid objective %d not aligned", a)
		}
		resultsClose(t, fmt.Sprintf("objective %d", a), r, want, 0)
	}
}

// TestEngineAlignAllPerObjective pins AlignAll against per-objective
// Align: every result must be bit-identical, and with a fallback
// crosswalk over degenerate rows the target mass must equal the
// objective mass minus the rows nothing supports. It covers batch sizes
// from a lone request to two workers' worth of uneven chains (1, 2, 3,
// 4, 15, 16, 17 and 33 objectives), one and two workers, and a batch
// of sixteen whose other fifteen objectives are rejected.
func TestEngineAlignAllPerObjective(t *testing.T) {
	const ns, nt = 90, 14
	rng := rand.New(rand.NewSource(15))
	p := engineProblem(rng, ns, nt, 4)
	// Every third source unit loses its support in every reference;
	// the fallback covers the even rows, so rows ≡ 3 (mod 6) are
	// dropped.
	for k, r := range p.References {
		coo := sparse.NewCOO(ns, nt)
		for i := 0; i < ns; i++ {
			if i%3 == 0 {
				continue
			}
			cols, vals := r.DM.Row(i)
			for c, j := range cols {
				coo.Add(i, j, vals[c])
			}
		}
		p.References[k].DM = coo.ToCSR()
	}
	fbCOO := sparse.NewCOO(ns, nt)
	for i := 0; i < ns; i += 2 {
		fbCOO.Add(i, rng.Intn(nt), 1+rng.Float64())
		fbCOO.Add(i, rng.Intn(nt), 1+rng.Float64())
	}
	fb := fbCOO.ToCSR()
	fbSums := fb.RowSums()

	objectives := make([][]float64, 33)
	for a := range objectives {
		obj := make([]float64, ns)
		for i := range obj {
			obj[i] = rng.Float64() * 100
		}
		objectives[a] = obj
	}
	// Sixteen objectives with one live: the rest are rejected.
	const loneAt = 7
	rejected := make([][]float64, 16)
	for a := range rejected {
		switch {
		case a == loneAt:
			rejected[a] = objectives[0]
		case a%2 == 0:
			bad := append([]float64(nil), objectives[a]...)
			bad[a] = math.NaN()
			rejected[a] = bad
		default:
			rejected[a] = make([]float64, ns-1)
		}
	}

	check := func(t *testing.T, tag string, e *Engine, got *Result, obj []float64) {
		t.Helper()
		want, err := e.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatalf("%s: no result", tag)
		}
		resultsClose(t, tag, got, want, 0)
		if e.opts.FallbackDM == nil {
			return
		}
		var in, dropped, out float64
		for i, v := range obj {
			in += v
			if e.rowSupport(i) == 0 && fbSums[i] == 0 {
				dropped += v
			}
		}
		if dropped == 0 || dropped == in {
			t.Fatalf("%s: test problem drops %v of %v", tag, dropped, in)
		}
		for _, v := range got.Target {
			out += v
		}
		if math.Abs(out-(in-dropped)) > 1e-9*in {
			t.Errorf("%s: target mass %v, want %v - %v dropped", tag, out, in, dropped)
		}
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
			for _, workers := range []int{1, 2} {
				for _, n := range []int{1, 2, 3, 4, 15, 16, 17, 33} {
					batch, err := e.AlignAll(objectives[:n], workers)
					if err != nil {
						t.Fatal(err)
					}
					for a, obj := range objectives[:n] {
						check(t, fmt.Sprintf("n=%d workers=%d objective %d", n, workers, a), e, batch[a], obj)
					}
				}

				results, err := e.AlignAll(rejected, workers)
				if err == nil || !contains(err.Error(), "objective 0") {
					t.Fatalf("workers=%d: rejected batch err = %v, want objective 0", workers, err)
				}
				for a, r := range results {
					if a != loneAt && r != nil {
						t.Errorf("workers=%d: rejected objective %d produced a result", workers, a)
					}
				}
				check(t, fmt.Sprintf("rejected batch workers=%d", workers), e, results[loneAt], rejected[loneAt])
			}
		})
	}
}
