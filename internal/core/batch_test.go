package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"geoalign/internal/sparse"
)

// TestEngineBatchBitIdentical pins the serving contract: without a
// retained DM or fallback the fused batch redistribution must be
// bitwise identical to per-call Align — including partial tail chunks,
// multiple workers, and chunk counts around the redistChunk boundary.
func TestEngineBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, redistChunk - 1, redistChunk, redistChunk + 1, 3*redistChunk + 5} {
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
	objectives := make([][]float64, 6*redistChunk)
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

// TestEngineAlignAllFastPathErrors mirrors TestEngineAlignAllError on
// the fused path with a tail chunk: invalid objectives are reported in
// input order while valid ones still align.
func TestEngineAlignAllFastPathErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := engineProblem(rng, 30, 8, 3)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objectives := make([][]float64, redistChunk+3)
	for a := range objectives {
		objectives[a] = p.Objective
	}
	objectives[2] = make([]float64, 5) // wrong length
	objectives[redistChunk+1] = nil    // empty

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
		if a == 2 || a == redistChunk+1 {
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

// TestEngineAlignAllChunkRouting pins how AlignAll routes its chunks: a
// chunk with fewer than fuseMinLive live attributes runs Align's kernel
// once per attribute, more run the fused pass, and both are
// bit-identical to per-objective Align. It covers batch sizes on both
// sides of the crossover and around the chunk width (a lone request, a
// pair, one below and at fuseMinLive, a full chunk, a one-attribute
// and a fuseMinLive-1 tail after a full chunk, a one-attribute tail
// after two), one and two workers, a chunk whose other fifteen
// objectives are rejected, and a fallback crosswalk over degenerate
// rows, where the target mass must equal the objective mass minus the
// rows nothing supports. Only chunks that run the fused pass may take
// the pooled batch scratch.
func TestEngineAlignAllChunkRouting(t *testing.T) {
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

	objectives := make([][]float64, 3*redistChunk+1)
	for a := range objectives {
		obj := make([]float64, ns)
		for i := range obj {
			obj[i] = rng.Float64() * 100
		}
		objectives[a] = obj
	}
	// A full chunk with one live attribute: the rest are rejected.
	const loneAt = 7
	rejected := make([][]float64, redistChunk)
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

	// newEngine builds a fresh engine (so its batch pool starts empty)
	// that counts the batch scratches it allocates.
	newEngine := func(t *testing.T, opts Options) (*Engine, *atomic.Int64) {
		e, err := NewEngine(p.References, opts)
		if err != nil {
			t.Fatal(err)
		}
		taken := new(atomic.Int64)
		e.batch.New = func() any {
			taken.Add(1)
			return newBatchScratch(e)
		}
		return e, taken
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
			for _, workers := range []int{1, 2} {
				for _, n := range []int{1, 2, fuseMinLive - 1, fuseMinLive, redistChunk, redistChunk + 1, redistChunk + fuseMinLive - 1, 2*redistChunk + 1} {
					e, taken := newEngine(t, tc.opts)
					batch, err := e.AlignAll(objectives[:n], workers)
					if err != nil {
						t.Fatal(err)
					}
					for a, obj := range objectives[:n] {
						check(t, fmt.Sprintf("n=%d workers=%d objective %d", n, workers, a), e, batch[a], obj)
					}
					if n < fuseMinLive && taken.Load() != 0 {
						t.Errorf("n=%d workers=%d: a chunk below fuseMinLive took %d batch scratches", n, workers, taken.Load())
					}
					if n >= fuseMinLive && taken.Load() == 0 {
						t.Errorf("n=%d workers=%d: no fused chunk took a batch scratch", n, workers)
					}
				}

				e, taken := newEngine(t, tc.opts)
				results, err := e.AlignAll(rejected, workers)
				if err == nil || !contains(err.Error(), "objective 0") {
					t.Fatalf("workers=%d: rejected chunk err = %v, want objective 0", workers, err)
				}
				for a, r := range results {
					if a != loneAt && r != nil {
						t.Errorf("workers=%d: rejected objective %d produced a result", workers, a)
					}
				}
				check(t, fmt.Sprintf("rejected chunk workers=%d", workers), e, results[loneAt], rejected[loneAt])
				if taken.Load() != 0 {
					t.Errorf("workers=%d: a chunk with one live attribute took %d batch scratches", workers, taken.Load())
				}
			}
		})
	}
}
