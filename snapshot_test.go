package geoalign

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"geoalign/internal/synth"
)

// usScaleRefs builds the paper's United States fixture (30238 source
// units, 3142 target units, 7 references) as public-API references.
func usScaleRefs(tb testing.TB, rng *rand.Rand) []Reference {
	tb.Helper()
	p := synth.ScalingProblem(rng, 30238, 3142, 7)
	refs := make([]Reference, len(p.References))
	for kk, r := range p.References {
		xw := NewCrosswalk(r.DM.Rows, r.DM.Cols)
		for i := 0; i < r.DM.Rows; i++ {
			cols, vals := r.DM.Row(i)
			for t, j := range cols {
				if err := xw.Add(i, j, vals[t]); err != nil {
					tb.Fatal(err)
				}
			}
		}
		refs[kk] = Reference{Name: r.Name, Crosswalk: xw}
	}
	return refs
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestOpenSnapshotBitIdenticalUSScale is the tentpole acceptance pin:
// at the paper's US scale, an aligner mapped back from a snapshot must
// reproduce the freshly built aligner's Align and warm AlignAll outputs
// bit for bit.
func TestOpenSnapshotBitIdenticalUSScale(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	opts := &AlignerOptions{Workers: 4}
	built, err := NewAligner(usScaleRefs(t, rng), opts)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "us.snap")
	meta := &SnapshotMeta{SourceKeys: []string{"only", "spot", "checked"}}
	if err := built.WriteSnapshot(path, meta); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	loaded, gotMeta, err := OpenSnapshot(path, opts)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer loaded.Close()
	if !reflect.DeepEqual(gotMeta.SourceKeys, meta.SourceKeys) {
		t.Fatalf("meta keys: %v", gotMeta.SourceKeys)
	}
	st := loaded.Stats()
	if !st.FromSnapshot || st.MappedBytes == 0 || st.PrecomputeBytes == 0 {
		t.Fatalf("Stats: %+v", st)
	}
	if bs := built.Stats(); bs.FromSnapshot || bs.MappedBytes != 0 {
		t.Fatalf("built Stats: %+v", bs)
	}

	// Single-attribute path.
	obj := make([]float64, built.SourceUnits())
	for i := range obj {
		obj[i] = rng.Float64() * 1000
	}
	want, err := built.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Weights, want.Weights) {
		t.Fatal("weights differ between built and snapshot-loaded aligners")
	}
	if !bitsEqual(got.Target, want.Target) {
		t.Fatal("targets differ between built and snapshot-loaded aligners")
	}

	// Warm batch path: the fused AlignAll with warm-started solvers.
	objectives := make([][]float64, 8)
	for o := range objectives {
		v := make([]float64, built.SourceUnits())
		for i := range v {
			v[i] = rng.Float64() * 500
		}
		objectives[o] = v
	}
	// Warm both engines' pools first so the compared calls are the
	// steady state.
	if _, err := built.AlignAll(objectives[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.AlignAll(objectives[:2]); err != nil {
		t.Fatal(err)
	}
	wantBatch, err := built.AlignAll(objectives)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := loaded.AlignAll(objectives)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBatch {
		if !bitsEqual(gotBatch[i].Weights, wantBatch[i].Weights) || !bitsEqual(gotBatch[i].Target, wantBatch[i].Target) {
			t.Fatalf("batch objective %d differs between built and snapshot-loaded aligners", i)
		}
	}
}
