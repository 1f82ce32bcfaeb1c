package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"geoalign"
)

func postDelta(tb testing.TB, client *http.Client, url, engine string, d geoalign.Delta, binary bool) (deltaResponse, *http.Response) {
	tb.Helper()
	var body []byte
	ct := contentTypeJSON
	if binary {
		body = encodeDelta(nil, &d)
		ct = contentTypeBinary
	} else {
		var err error
		if body, err = json.Marshal(d); err != nil {
			tb.Fatal(err)
		}
	}
	resp, err := client.Post(url+"/v1/engines/"+engine+"/delta", ct, bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var out deltaResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			tb.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return out, resp
}

// TestDeltaEndpoint applies a source revision over each wire format and
// checks the served results move to the derived engine's, which must
// match an offline ApplyDelta chain from the same parent bit for bit.
func TestDeltaEndpoint(t *testing.T) {
	for _, binary := range []bool{false, true} {
		name := "json"
		if binary {
			name = "binary"
		}
		t.Run(name, func(t *testing.T) {
			al := testAligner(t, 41, 60, 12, 3)
			_, hts := newTestServer(t, al, Config{})
			client := hts.Client()

			rng := rand.New(rand.NewSource(99))
			obj := randObjective(rng, al.SourceUnits())
			before, resp := postAlign(t, client, hts.URL, alignRequest{Engine: "test", Objective: obj})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("align before delta: status %d", resp.StatusCode)
			}

			d := geoalign.Delta{SourcePatches: []geoalign.SourcePatch{{Ref: 1, Row: 3, Value: 123.5}}}
			dr, resp := postDelta(t, client, hts.URL, "test", d, binary)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("delta: status %d", resp.StatusCode)
			}
			if dr.Engine != "test" || dr.Generation != 2 || dr.Applied != 1 || dr.Persisted {
				t.Fatalf("delta response = %+v, want engine test gen 2 applied 1 unpersisted", dr)
			}

			want, err := al.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := want.Align(obj)
			if err != nil {
				t.Fatal(err)
			}
			after, resp := postAlign(t, client, hts.URL, alignRequest{Engine: "test", Objective: obj})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("align after delta: status %d", resp.StatusCode)
			}
			if !floatsEqual(after.Target, wantRes.Target) {
				t.Fatal("post-delta align does not match offline ApplyDelta result")
			}
			if floatsEqual(after.Target, before.Target) {
				t.Fatal("delta did not change the served result")
			}
		})
	}
}

func TestDeltaEndpointErrors(t *testing.T) {
	al := testAligner(t, 42, 40, 8, 2)
	s, hts := newTestServer(t, al, Config{})
	client := hts.Client()

	valid := geoalign.Delta{SourcePatches: []geoalign.SourcePatch{{Ref: 0, Row: 1, Value: 2}}}
	if _, resp := postDelta(t, client, hts.URL, "missing", valid, false); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown engine: status %d, want 404", resp.StatusCode)
	}
	for name, d := range map[string]geoalign.Delta{
		"empty":          {},
		"ref range":      {SourcePatches: []geoalign.SourcePatch{{Ref: 9, Row: 0, Value: 1}}},
		"negative value": {RowPatches: []geoalign.RowPatch{{Ref: 0, Row: 0, Cols: []int{1}, Vals: []float64{-1}}}},
	} {
		if _, resp := postDelta(t, client, hts.URL, "test", d, false); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := client.Post(hts.URL+"/v1/engines/test/delta", contentTypeJSON, bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	resp, err = client.Post(hts.URL+"/v1/engines/test/delta", contentTypeBinary, bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed binary: status %d, want 400", resp.StatusCode)
	}
	if got := s.registry.Generation("test"); got != 1 {
		t.Fatalf("generation = %d after rejected deltas, want 1", got)
	}
	if s.metrics.deltaRejected.Load() == 0 {
		t.Fatal("rejected deltas not counted")
	}
}

// TestDeltaSnapshotPersistPolicy pins the SnapshotEvery re-persist
// cadence: with SnapshotEvery=2, applies 2 and 4 persist, others don't.
func TestDeltaSnapshotPersistPolicy(t *testing.T) {
	al := testAligner(t, 43, 40, 8, 2)
	var mu sync.Mutex
	var persisted []string
	cfg := Config{
		SnapshotEvery: 2,
		SnapshotPersist: func(name string, al *geoalign.Aligner) error {
			mu.Lock()
			defer mu.Unlock()
			persisted = append(persisted, name)
			if al == nil {
				return errors.New("nil aligner")
			}
			return nil
		},
	}
	s, hts := newTestServer(t, al, cfg)
	client := hts.Client()

	for i := 1; i <= 5; i++ {
		d := geoalign.Delta{SourcePatches: []geoalign.SourcePatch{{Ref: 0, Row: 0, Value: float64(i)}}}
		dr, resp := postDelta(t, client, hts.URL, "test", d, false)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d", i, resp.StatusCode)
		}
		wantPersist := i%2 == 0
		if dr.Persisted != wantPersist || dr.Applied != int64(i) || dr.Generation != i+1 {
			t.Fatalf("delta %d response = %+v, want applied %d gen %d persisted %v", i, dr, i, i+1, wantPersist)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(persisted) != 2 || persisted[0] != "test" || persisted[1] != "test" {
		t.Fatalf("persist calls = %v, want [test test]", persisted)
	}
	if s.metrics.SnapshotPersists() != 2 || s.metrics.DeltasApplied() != 5 {
		t.Fatalf("metrics: persists %d deltas %d, want 2 and 5", s.metrics.SnapshotPersists(), s.metrics.DeltasApplied())
	}
}

// TestDeltaSwapGenerationExact is the serving-layer race test: align
// traffic runs concurrently with a stream of deltas, each published via
// SwapOwned. Every response must match one
// published generation's result bit for bit — a response blending two
// generations, or computed on a half-applied engine, fails the match.
func TestDeltaSwapGenerationExact(t *testing.T) {
	const gens = 8 // generations beyond the first
	al := testAligner(t, 44, 80, 16, 3)
	rng := rand.New(rand.NewSource(7))
	obj := randObjective(rng, al.SourceUnits())

	// Precompute each generation's expected target vector through an
	// offline ApplyDelta chain from the same parent. ApplyDelta is
	// deterministic, so the server's chain produces identical engines.
	deltas := make([]geoalign.Delta, gens)
	expected := make([][]float64, gens+1)
	cur := al
	res, err := cur.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	expected[0] = res.Target
	for g := 0; g < gens; g++ {
		deltas[g] = geoalign.Delta{SourcePatches: []geoalign.SourcePatch{
			{Ref: g % 3, Row: (g * 5) % cur.SourceUnits(), Value: 40 + 11*float64(g)},
		}}
		if cur, err = cur.ApplyDelta(deltas[g]); err != nil {
			t.Fatal(err)
		}
		if res, err = cur.Align(obj); err != nil {
			t.Fatal(err)
		}
		expected[g+1] = res.Target
	}
	for g := 1; g < len(expected); g++ {
		if floatsEqual(expected[g-1], expected[g]) {
			t.Fatalf("generations %d and %d coincide; deltas too weak to discriminate", g-1, g)
		}
	}

	_, hts := newTestServer(t, al, Config{})
	client := hts.Client()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, resp := postAlign(t, client, hts.URL, alignRequest{Engine: "test", Objective: obj})
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("align status %d", resp.StatusCode)
					return
				}
				match := -1
				for g, want := range expected {
					if floatsEqual(out.Target, want) {
						match = g
						break
					}
				}
				if match < 0 {
					errc <- errors.New("align response matches no published generation")
					return
				}
			}
		}()
	}
	for g := 0; g < gens; g++ {
		dr, resp := postDelta(t, client, hts.URL, "test", deltas[g], g%2 == 1)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d", g, resp.StatusCode)
		}
		if dr.Generation != g+2 {
			t.Fatalf("delta %d published generation %d, want %d", g, dr.Generation, g+2)
		}
		time.Sleep(2 * time.Millisecond) // let some traffic land on the new generation
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// After the dust settles, fresh traffic must serve the final
	// generation exactly.
	out, resp := postAlign(t, client, hts.URL, alignRequest{Engine: "test", Objective: obj})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final align: status %d", resp.StatusCode)
	}
	if !floatsEqual(out.Target, expected[gens]) {
		t.Fatal("final align does not match the last published generation")
	}
}

func TestEncodeDecodeDeltaRoundTrip(t *testing.T) {
	cases := []geoalign.Delta{
		{SourcePatches: []geoalign.SourcePatch{{Ref: 1, Row: 2, Value: 3.5}}},
		{RowPatches: []geoalign.RowPatch{
			{Ref: 0, Row: 4, Cols: []int{1, 3, 7}, Vals: []float64{0.5, 1, 2}},
			{Ref: 2, Row: 9, Delete: true},
		}},
		{
			RowPatches:    []geoalign.RowPatch{{Ref: 1, Row: 0, Cols: []int{0}, Vals: []float64{9}}},
			SourcePatches: []geoalign.SourcePatch{{Ref: 0, Row: 1, Value: 2}, {Ref: 1, Row: 5, Value: 0}},
		},
	}
	for i, d := range cases {
		b := encodeDelta(nil, &d)
		got, err := decodeDelta(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		gb, db := mustJSON(t, got), mustJSON(t, d)
		if !bytes.Equal(gb, db) {
			t.Fatalf("case %d: round trip mismatch:\n got %s\nwant %s", i, gb, db)
		}
	}
	for name, b := range map[string][]byte{
		"empty":          {},
		"half header":    {1, 0},
		"count too big":  {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		"truncated vals": encodeDelta(nil, &geoalign.Delta{RowPatches: []geoalign.RowPatch{{Cols: []int{1}, Vals: []float64{1}}}})[:20],
		"unknown flags":  {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0},
		"trailing bytes": append(encodeDelta(nil, &geoalign.Delta{SourcePatches: []geoalign.SourcePatch{{Value: 1}}}), 0),
	} {
		if _, err := decodeDelta(b); !errors.Is(err, errMalformedDelta) {
			t.Fatalf("%s: err = %v, want errMalformedDelta", name, err)
		}
	}
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// fuzzAligner lazily builds one tiny shared engine for the fuzz
// targets' apply step.
var fuzzAligner = sync.OnceValue(func() *geoalign.Aligner {
	rows, cols := 6, 4
	xw := geoalign.NewCrosswalk(rows, cols)
	for i := 0; i < rows; i++ {
		xw.Add(i, i%cols, 1+float64(i))
		xw.Add(i, (i+1)%cols, 2)
	}
	al, err := geoalign.NewAligner([]geoalign.Reference{
		{Name: "a", Crosswalk: xw},
		{Name: "b", Crosswalk: xw, Source: []float64{1, 2, 3, 4, 5, 6}},
	}, nil)
	if err != nil {
		panic(err)
	}
	return al
})

// checkApply feeds a decoded delta through ApplyDelta: the only
// acceptable failure is the ErrBadDelta sentinel — anything else
// (including a panic) means hostile input reached engine internals.
func checkApply(t *testing.T, d geoalign.Delta) {
	t.Helper()
	if _, err := fuzzAligner().ApplyDelta(d); err != nil && !errors.Is(err, geoalign.ErrBadDelta) {
		t.Fatalf("ApplyDelta: err = %v, want nil or ErrBadDelta", err)
	}
}

// FuzzDecodeDeltaBinary is the binary half of the payload fuzz: any
// byte string either fails with the framing sentinel or decodes to a
// delta that re-encodes to the identical bytes (the framing is
// canonical) and applies without panicking.
func FuzzDecodeDeltaBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeDelta(nil, &geoalign.Delta{SourcePatches: []geoalign.SourcePatch{{Ref: 1, Row: 2, Value: 3}}}))
	f.Add(encodeDelta(nil, &geoalign.Delta{RowPatches: []geoalign.RowPatch{
		{Ref: 0, Row: 1, Cols: []int{0, 2}, Vals: []float64{1, 2}},
		{Ref: 1, Row: 3, Delete: true},
	}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := decodeDelta(b)
		if err != nil {
			if !errors.Is(err, errMalformedDelta) {
				t.Fatalf("decodeDelta: err = %v does not wrap the sentinel", err)
			}
			return
		}
		if re := encodeDelta(nil, &d); !bytes.Equal(re, b) {
			t.Fatalf("re-encode of accepted payload differs:\n got %x\nwant %x", re, b)
		}
		checkApply(t, d)
	})
}

// FuzzDecodeDeltaJSON is the JSON half: any body either fails JSON
// decoding or yields a delta ApplyDelta accepts or rejects with
// ErrBadDelta — never a panic or an internal error.
func FuzzDecodeDeltaJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"row_patches":[{"ref":0,"row":1,"cols":[0,2],"vals":[1,2]}]}`))
	f.Add([]byte(`{"source_patches":[{"ref":1,"row":2,"value":3}]}`))
	f.Add([]byte(`{"row_patches":[{"ref":0,"row":1,"delete":true}]}`))
	f.Add([]byte(`{"row_patches":[{"cols":[3,1],"vals":[1,2]}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var d geoalign.Delta
		if err := json.Unmarshal(b, &d); err != nil {
			return
		}
		checkApply(t, d)
	})
}
