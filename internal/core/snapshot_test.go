package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"geoalign/internal/linalg"
	"geoalign/internal/snapshot"
	"geoalign/internal/sparse"
)

// testRefs builds a small 3-reference problem exercising both source
// conventions (explicit vector and DM-derived) and partial support.
func testRefs() []Reference {
	dm0 := sparse.NewCOO(4, 3)
	dm0.Add(0, 0, 2)
	dm0.Add(0, 1, 1)
	dm0.Add(1, 1, 3)
	dm0.Add(2, 2, 4)
	dm1 := sparse.NewCOO(4, 3)
	dm1.Add(0, 0, 1)
	dm1.Add(1, 0, 1)
	dm1.Add(1, 2, 2)
	dm1.Add(2, 1, 5)
	dm2 := sparse.NewCOO(4, 3)
	dm2.Add(0, 2, 3)
	dm2.Add(2, 0, 1)
	return []Reference{
		{Name: "area", DM: dm0.ToCSR()},
		{Name: "pop", Source: []float64{1.5, 3, 4.5, 0}, DM: dm1.ToCSR()},
		{Name: "", DM: dm2.ToCSR()},
	}
}

func bitEqual(a, b []float64) bool {
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

func TestEngineSnapshotRoundTrip(t *testing.T) {
	opts := Options{}
	built, err := NewEngine(testRefs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	objectives := [][]float64{
		{10, 20, 30, 40},
		{0, 5, 0, 1},
		{3, 0, 7, 2},
	}

	meta := &SnapshotMeta{
		SourceKeys: []string{"s0", "s1", "s2", "s3"},
		TargetKeys: []string{"t0", "t1", "t2"},
	}
	var buf bytes.Buffer
	n, err := built.WriteSnapshot(&buf, meta)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n != built.SnapshotSize(meta) {
		t.Fatalf("SnapshotSize predicted %d bytes, wrote %d", built.SnapshotSize(meta), n)
	}

	loaded, gotMeta, err := LoadSnapshotBytes(buf.Bytes(), opts)
	if err != nil {
		t.Fatalf("LoadSnapshotBytes: %v", err)
	}
	defer loaded.Close()
	if !loaded.FromSnapshot() || built.FromSnapshot() {
		t.Fatalf("FromSnapshot: loaded=%v built=%v", loaded.FromSnapshot(), built.FromSnapshot())
	}
	if loaded.MappedBytes() != int64(buf.Len()) {
		t.Fatalf("MappedBytes = %d, want %d", loaded.MappedBytes(), buf.Len())
	}
	if !reflect.DeepEqual(gotMeta.SourceKeys, meta.SourceKeys) || !reflect.DeepEqual(gotMeta.TargetKeys, meta.TargetKeys) {
		t.Fatalf("meta keys did not round-trip: %+v", gotMeta)
	}
	if loaded.SourceUnits() != 4 || loaded.TargetUnits() != 3 || loaded.References() != 3 {
		t.Fatalf("dimensions: %d x %d x %d", loaded.SourceUnits(), loaded.TargetUnits(), loaded.References())
	}
	if loaded.PatternNNZ() != built.PatternNNZ() {
		t.Fatalf("PatternNNZ: loaded %d, built %d", loaded.PatternNNZ(), built.PatternNNZ())
	}
	if loaded.PrecomputeBytes() <= 0 {
		t.Fatal("PrecomputeBytes <= 0")
	}

	for oi, obj := range objectives {
		want, err := built.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(got.Weights, want.Weights) {
			t.Fatalf("objective %d: weights differ: %v vs %v", oi, got.Weights, want.Weights)
		}
		if !bitEqual(got.Target, want.Target) {
			t.Fatalf("objective %d: targets differ: %v vs %v", oi, got.Target, want.Target)
		}
	}

	wantBatch, err := built.AlignAll(objectives, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := loaded.AlignAll(objectives, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBatch {
		if !bitEqual(gotBatch[i].Target, wantBatch[i].Target) || !bitEqual(gotBatch[i].Weights, wantBatch[i].Weights) {
			t.Fatalf("batch objective %d differs", i)
		}
	}
}

func TestEngineSnapshotFile(t *testing.T) {
	built, err := NewEngine(testRefs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := built.WriteSnapshotFile(path, nil); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	loaded, meta, err := LoadSnapshot(path, Options{})
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if len(meta.SourceKeys) != 0 || len(meta.TargetKeys) != 0 {
		t.Fatalf("unexpected keys in meta: %+v", meta)
	}
	obj := []float64{1, 2, 3, 4}
	want, err := built.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got.Target, want.Target) {
		t.Fatalf("targets differ: %v vs %v", got.Target, want.Target)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// writeCholeskySnapshot encodes e in the target-major layout as the
// version before this one wrote it: flags in the meta section and,
// when chol is non-nil, the Cholesky factor of G in section 7.
func writeCholeskySnapshot(t *testing.T, e *Engine, flags int, chol []float64) []byte {
	t.Helper()
	k := len(e.refs)
	w := snapshot.NewWriter()
	w.Ints(secMeta, []int{e.ns, e.nt, k, flags})
	w.F64(secScalars, []float64{e.gram.AInf})
	w.F64(secWeightMat, e.gram.Design())
	w.F64(secGram, e.gram.Gram().Data)
	if chol != nil {
		w.F64(secLegacyCholesky, chol)
	}
	names := make([]string, k)
	for i, r := range e.refs {
		names[i] = r.Name
	}
	w.Strings(secRefNames, names)
	for i, r := range e.refs {
		base := uint32(xwSectionBase + i*refSectionStride)
		w.Ints(base+refDMIndPtr, r.DM.IndPtr)
		w.Ints(base+refDMColIdx, r.DM.ColIdx)
		w.F64(base+refDMVal, r.DM.Val)
		if r.Source != nil {
			w.F64(base+refSource, r.Source)
		}
		w.F64(base+refRowSums, e.rowSums[i])
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotPersistsSolverCaches: the solver state a snapshot
// carries — the Gram matrix G and ‖A‖∞ — loads bit-identically, so a
// loaded engine solves from exactly the built engine's system.
func TestSnapshotPersistsSolverCaches(t *testing.T) {
	built, err := NewEngine(testRefs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteSnapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSnapshotBytes(buf.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if !bitEqual(loaded.gram.Gram().Data, built.gram.Gram().Data) {
		t.Fatal("Gram matrix did not round-trip bit-identically")
	}
	if math.Float64bits(loaded.gram.AInf) != math.Float64bits(built.gram.AInf) {
		t.Fatalf("‖A‖∞ %v loaded, %v built", loaded.gram.AInf, built.gram.AInf)
	}
}

// TestSnapshotCholeskyCompat: files that carry the Cholesky state
// earlier versions persisted — a positive-definite factor in section 7,
// or the flag recording a failed factorisation — still open, and align
// bit-identically to a freshly built engine, alone and in a batch.
func TestSnapshotCholeskyCompat(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const ns, nt = 60, 10
	p := engineProblem(rng, ns, nt, 4)
	fresh, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := linalg.Cholesky(fresh.gram.Gram())
	if err != nil {
		t.Fatalf("test design should be positive definite: %v", err)
	}
	objectives := make([][]float64, 4)
	for a := range objectives {
		obj := make([]float64, ns)
		for i := range obj {
			obj[i] = rng.Float64() * 100
		}
		objectives[a] = obj
	}
	for _, tc := range []struct {
		name  string
		flags int
		chol  []float64
	}{
		{"factor", flagLegacyCholeskyPD, l.Data},
		{"not positive definite", flagLegacyCholeskyFail, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, _, err := LoadSnapshotBytes(writeCholeskySnapshot(t, fresh, tc.flags, tc.chol), Options{})
			if err != nil {
				t.Fatalf("snapshot with Cholesky state rejected: %v", err)
			}
			defer old.Close()
			for a, obj := range objectives {
				want, err := fresh.Align(obj)
				if err != nil {
					t.Fatal(err)
				}
				got, err := old.Align(obj)
				if err != nil {
					t.Fatal(err)
				}
				if !bitEqual(got.Target, want.Target) || !bitEqual(got.Weights, want.Weights) {
					t.Fatalf("objective %d: loaded engine aligns differently from a fresh one", a)
				}
			}
			batch, err := old.AlignAll(objectives, 2)
			if err != nil {
				t.Fatal(err)
			}
			for a, obj := range objectives {
				want, _ := fresh.Align(obj)
				if !bitEqual(batch[a].Target, want.Target) || !bitEqual(batch[a].Weights, want.Weights) {
					t.Fatalf("objective %d: loaded engine's batch differs from a fresh Align", a)
				}
			}
		})
	}
}

// TestSnapshotWithoutSolverCaches: a newly written snapshot carries no
// solver state beyond G and ‖A‖∞ — no flag bit, no Cholesky section —
// and loads to an engine that aligns bit-identically to the one it was
// written from.
func TestSnapshotWithoutSolverCaches(t *testing.T) {
	built, err := NewEngine(testRefs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteSnapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.Has(secLegacyCholesky) {
		t.Fatal("new snapshot stores a Cholesky section")
	}
	m, err := f.Ints(secMeta)
	if err != nil {
		t.Fatal(err)
	}
	if m[3] != 0 {
		t.Fatalf("new snapshot sets meta flags %#x, want 0", m[3])
	}
	f.Close()

	loaded, _, err := LoadSnapshotBytes(buf.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	obj := []float64{2, 4, 6, 8}
	want, err := built.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got.Target, want.Target) || !bitEqual(got.Weights, want.Weights) {
		t.Fatal("results differ between built and loaded engines")
	}
}

func TestSnapshotFallbackOption(t *testing.T) {
	fbCOO := sparse.NewCOO(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			fbCOO.Add(i, j, 1)
		}
	}
	fb := fbCOO.ToCSR()
	opts := Options{FallbackDM: fb}
	built, err := NewEngine(testRefs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteSnapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSnapshotBytes(buf.Bytes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	// Row 3 has no reference support: only the fallback redistributes it.
	obj := []float64{1, 1, 1, 9}
	want, err := built.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got.Target, want.Target) {
		t.Fatalf("fallback targets differ: %v vs %v", got.Target, want.Target)
	}
	var total float64
	for _, v := range got.Target {
		total += v
	}
	if math.Abs(total-12) > 1e-9 {
		t.Fatalf("fallback did not preserve volume: total %v, want 12", total)
	}
}

// tinySections is a hand-built, internally consistent snapshot of a
// minimal 1-reference engine; tests mutate individual sections to prove
// the loader rejects structurally inconsistent files. legacy adds the
// sections and flag that earlier versions wrote (union pattern,
// zero-support mask, slot map, Lipschitz constant, Cholesky factor),
// which the loader must ignore.
type tinySections struct {
	meta     []int
	scalars  []float64
	wm       []float64
	gram     []float64
	names    []string
	dmIndPtr []int
	dmColIdx []int
	dmVal    []float64
	rowSums  []float64
	base     uint32 // per-reference section base; 0 means refSectionBase

	legacy    bool
	patIndPtr []int
	patColIdx []int
	zero      []byte
	slots     []int
	chol      []float64
}

func validTiny() *tinySections {
	return &tinySections{
		meta:     []int{2, 2, 1, 0}, // ns=2, nt=2, k=1
		scalars:  []float64{1},
		wm:       []float64{1, 1},
		gram:     []float64{2},
		names:    []string{"ref"},
		dmIndPtr: []int{0, 2, 3},
		dmColIdx: []int{0, 1, 1},
		dmVal:    []float64{1, 1, 2},
		rowSums:  []float64{2, 2},
	}
}

// legacyTiny is validTiny as earlier versions wrote it.
func legacyTiny() *tinySections {
	s := validTiny()
	s.meta[3] = flagLegacyLipschitz | flagLegacyCholeskyPD
	s.scalars = []float64{1, 2}
	s.legacy = true
	s.patIndPtr = []int{0, 2, 3}
	s.patColIdx = []int{0, 1, 1}
	s.zero = []byte{0, 0}
	s.slots = []int{0, 1, 2}
	s.chol = []float64{math.Sqrt2}
	return s
}

func (s *tinySections) encode(t *testing.T) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	w.Ints(secMeta, s.meta)
	w.F64(secScalars, s.scalars)
	w.F64(secWeightMat, s.wm)
	w.F64(secGram, s.gram)
	w.Strings(secRefNames, s.names)
	base := s.base
	if base == 0 {
		base = refSectionBase
	}
	w.Ints(base+refDMIndPtr, s.dmIndPtr)
	w.Ints(base+refDMColIdx, s.dmColIdx)
	w.F64(base+refDMVal, s.dmVal)
	w.F64(base+refRowSums, s.rowSums)
	if s.legacy {
		w.Ints(secLegacyPatIndPtr, s.patIndPtr)
		w.Ints(secLegacyPatColIdx, s.patColIdx)
		w.Bytes(secLegacyZeroRow, s.zero)
		w.Ints(refSectionBase+refLegacySlots, s.slots)
		w.F64(secLegacyCholesky, s.chol)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotStructuralValidation(t *testing.T) {
	// The unmutated sections must load and align.
	e, _, err := LoadSnapshotBytes(validTiny().encode(t), Options{})
	if err != nil {
		t.Fatalf("valid tiny snapshot rejected: %v", err)
	}
	obj := []float64{3, 5}
	want, err := e.Align(obj)
	if err != nil {
		t.Fatalf("tiny engine Align: %v", err)
	}
	e.Close()

	cases := []struct {
		name   string
		mutate func(s *tinySections)
	}{
		{"meta too short", func(s *tinySections) { s.meta = s.meta[:3] }},
		{"zero references", func(s *tinySections) { s.meta[2] = 0 }},
		{"negative units", func(s *tinySections) { s.meta[0] = -1 }},
		{"implausible units", func(s *tinySections) { s.meta[0] = 1 << 50 }},
		{"scalars empty", func(s *tinySections) { s.scalars = nil }},
		{"dm indptr length", func(s *tinySections) { s.dmIndPtr = []int{0, 3} }},
		{"dm indptr start", func(s *tinySections) { s.dmIndPtr[0] = 1 }},
		{"dm indptr end", func(s *tinySections) { s.dmIndPtr[2] = 2 }},
		{"dm indptr decreasing", func(s *tinySections) { s.dmIndPtr[1] = 3; s.dmIndPtr[2] = 2 }},
		// An interior pointer overshooting the entry count while the last
		// pointer still equals it: the decrease only shows up one row
		// later, so a loop that trusted indptr[i+1] before comparing the
		// pair would index past the column slice.
		{"dm indptr interior overshoot", func(s *tinySections) { s.dmIndPtr[1] = 4 }},
		{"dm column out of range", func(s *tinySections) { s.dmColIdx[2] = 2 }},
		{"dm columns unsorted", func(s *tinySections) { s.dmColIdx[0], s.dmColIdx[1] = 1, 0 }},
		{"dm value length", func(s *tinySections) { s.dmVal = s.dmVal[:2] }},
		{"design matrix length", func(s *tinySections) { s.wm = []float64{1} }},
		{"gram length", func(s *tinySections) { s.gram = []float64{2, 0} }},
		{"name count", func(s *tinySections) { s.names = []string{"a", "b"} }},
		{"row sums length", func(s *tinySections) { s.rowSums = s.rowSums[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validTiny()
			tc.mutate(s)
			e, _, err := LoadSnapshotBytes(s.encode(t), Options{})
			if err == nil {
				e.Close()
				t.Fatal("structurally inconsistent snapshot accepted")
			}
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("err = %v, want errors.Is(err, snapshot.ErrCorrupt)", err)
			}
		})
	}

	// Snapshots written by earlier versions carry a union pattern, a
	// zero-support mask, slot maps, a Lipschitz constant and a Cholesky
	// factor. The loader
	// never reads them: such files load and align bit-identically, and
	// even a malformed legacy section cannot fail or perturb the load.
	legacyCases := []struct {
		name   string
		mutate func(s *tinySections)
	}{
		{"legacy sections", func(s *tinySections) {}},
		{"pattern indptr length", func(s *tinySections) { s.patIndPtr = []int{0, 3} }},
		{"pattern indptr start", func(s *tinySections) { s.patIndPtr[0] = 1 }},
		{"pattern indptr end", func(s *tinySections) { s.patIndPtr[2] = 2 }},
		{"pattern indptr decreasing", func(s *tinySections) { s.patIndPtr[1] = 3; s.patIndPtr[2] = 2 }},
		{"pattern indptr interior overshoot", func(s *tinySections) { s.patIndPtr[1] = 4 }},
		{"pattern column out of range", func(s *tinySections) { s.patColIdx[2] = 2 }},
		{"pattern columns unsorted", func(s *tinySections) { s.patColIdx[0], s.patColIdx[1] = 1, 0 }},
		{"zero mask length", func(s *tinySections) { s.zero = []byte{0} }},
		{"zero mask disagrees", func(s *tinySections) { s.zero[0] = 1 }},
		{"slot count", func(s *tinySections) { s.slots = s.slots[:2] }},
		{"slot out of file range", func(s *tinySections) { s.slots[2] = 9 }},
		{"slot in wrong row", func(s *tinySections) { s.slots[2] = 1 }},
		{"slot on wrong column", func(s *tinySections) { s.slots[0] = 1 }},
		{"cholesky size", func(s *tinySections) { s.chol = []float64{1, 0} }},
	}
	for _, tc := range legacyCases {
		t.Run(tc.name, func(t *testing.T) {
			s := legacyTiny()
			tc.mutate(s)
			e, _, err := LoadSnapshotBytes(s.encode(t), Options{})
			if err != nil {
				t.Fatalf("legacy snapshot rejected: %v", err)
			}
			defer e.Close()
			got, err := e.Align(obj)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(got.Target, want.Target) || !bitEqual(got.Weights, want.Weights) {
				t.Fatalf("legacy snapshot aligns to %v, want %v", got.Target, want.Target)
			}
		})
	}

	t.Run("missing section", func(t *testing.T) {
		w := snapshot.NewWriter()
		w.Ints(secMeta, []int{2, 2, 1, 0})
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadSnapshotBytes(buf.Bytes(), Options{})
		if !errors.Is(err, snapshot.ErrMissingSection) {
			t.Fatalf("err = %v, want ErrMissingSection", err)
		}
	})
}

// TestFallbackSumsCached pins the cache: repeated degenerate rows reuse
// one row-sum pass over the fallback.
func TestFallbackSumsCached(t *testing.T) {
	fbCOO := sparse.NewCOO(4, 3)
	for i := 0; i < 4; i++ {
		fbCOO.Add(i, i%3, 1)
	}
	opts := Options{FallbackDM: fbCOO.ToCSR()}
	e, err := NewEngine(testRefs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	obj := []float64{1, 1, 1, 9}
	first, err := e.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	sums := e.fallbackSums()
	again := e.fallbackSums()
	if &sums[0] != &again[0] {
		t.Fatal("fallbackSums recomputed instead of reusing the cache")
	}
	second, err := e.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(first.Target, second.Target) {
		t.Fatal("cached fallback sums changed the result")
	}
}

// writeRowMajorSnapshot encodes e in the layout earlier versions wrote:
// every per-reference section under refSectionBase, each crosswalk
// row-major as the caller built it (refs). The engine-level sections are
// e's own, so the file is what an earlier build of e would have written.
func writeRowMajorSnapshot(t *testing.T, e *Engine, refs []Reference) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	w.Ints(secMeta, []int{e.ns, e.nt, len(refs), 0})
	w.F64(secScalars, []float64{e.gram.AInf})
	w.F64(secWeightMat, e.gram.Design())
	w.F64(secGram, e.gram.Gram().Data)
	names := make([]string, len(refs))
	for i, r := range refs {
		names[i] = r.Name
	}
	w.Strings(secRefNames, names)
	for i, r := range refs {
		base := uint32(refSectionBase + i*refSectionStride)
		w.Ints(base+refDMIndPtr, r.DM.IndPtr)
		w.Ints(base+refDMColIdx, r.DM.ColIdx)
		w.F64(base+refDMVal, r.DM.Val)
		if r.Source != nil {
			w.F64(base+refSource, r.Source)
		}
		w.F64(base+refRowSums, r.DM.RowSums())
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRowMajorCompat: a snapshot in the row-major layout of
// earlier versions still loads — transposed once at open — and aligns
// bit-identically to a freshly built engine, alone and in a batch,
// with and without a fallback. New snapshots store no section under
// the old per-reference ids, so an earlier binary refuses them.
func TestSnapshotRowMajorCompat(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const ns, nt = 70, 12
	p := engineProblem(rng, ns, nt, 5)
	fbCOO := sparse.NewCOO(ns, nt)
	for i := 0; i < ns; i++ {
		fbCOO.Add(i, rng.Intn(nt), 1+rng.Float64())
	}
	for _, opts := range []Options{{}, {FallbackDM: fbCOO.ToCSR()}} {
		fresh, err := NewEngine(p.References, opts)
		if err != nil {
			t.Fatal(err)
		}
		old, _, err := LoadSnapshotBytes(writeRowMajorSnapshot(t, fresh, p.References), opts)
		if err != nil {
			t.Fatalf("row-major snapshot rejected: %v", err)
		}
		objectives := make([][]float64, 5)
		for a := range objectives {
			obj := make([]float64, ns)
			for i := range obj {
				obj[i] = rng.Float64() * 100
			}
			objectives[a] = obj
		}
		for a, obj := range objectives {
			want, err := fresh.Align(obj)
			if err != nil {
				t.Fatal(err)
			}
			got, err := old.Align(obj)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(got.Target, want.Target) || !bitEqual(got.Weights, want.Weights) {
				t.Fatalf("objective %d: row-major snapshot aligns differently from a fresh engine", a)
			}
		}
		batch, err := old.AlignAll(objectives, 2)
		if err != nil {
			t.Fatal(err)
		}
		for a, obj := range objectives {
			want, _ := fresh.Align(obj)
			if !bitEqual(batch[a].Target, want.Target) {
				t.Fatalf("objective %d: row-major snapshot batch differs", a)
			}
		}
		if old.PatternNNZ() != fresh.PatternNNZ() {
			t.Fatalf("PatternNNZ: row-major snapshot %d, fresh %d", old.PatternNNZ(), fresh.PatternNNZ())
		}
		old.Close()

		var buf bytes.Buffer
		if _, err := fresh.WriteSnapshot(&buf, nil); err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.OpenBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range f.SectionIDs() {
			if id >= refSectionBase && id < xwSectionBase {
				t.Fatalf("new snapshot stores section %d under the row-major ids", id)
			}
		}
		f.Close()
	}
}

// tinyTargetMajor is the sections of a freshly built 3-source,
// 2-target, 1-reference engine in the target-major layout. It is not
// square, so a crosswalk validated with its dimensions swapped fails.
func tinyTargetMajor(t *testing.T) (*tinySections, *Engine) {
	t.Helper()
	dm := &sparse.CSR{Rows: 3, Cols: 2, IndPtr: []int{0, 2, 3, 4}, ColIdx: []int{0, 1, 1, 0}, Val: []float64{1, 1, 2, 3}}
	e, err := NewEngine([]Reference{{Name: "ref", DM: dm}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	xt := e.refs[0].DM
	return &tinySections{
		meta:     []int{3, 2, 1, 0},
		scalars:  []float64{e.gram.AInf},
		wm:       e.gram.Design(),
		gram:     e.gram.Gram().Data,
		names:    []string{"ref"},
		dmIndPtr: append([]int(nil), xt.IndPtr...), // {0, 2, 4}
		dmColIdx: append([]int(nil), xt.ColIdx...), // {0, 2, 0, 1}
		dmVal:    append([]float64(nil), xt.Val...),
		rowSums:  append([]float64(nil), e.rowSums[0]...),
		base:     xwSectionBase,
	}, e
}

// TestSnapshotTargetMajorCorrupt: the loader validates a target-major
// crosswalk as an nt×ns matrix before the redistribution kernel indexes
// the per-source scales with its stored rows. A corrupted pointer or
// source-row index is rejected as ErrCorrupt.
func TestSnapshotTargetMajorCorrupt(t *testing.T) {
	s, fresh := tinyTargetMajor(t)
	e, _, err := LoadSnapshotBytes(s.encode(t), Options{})
	if err != nil {
		t.Fatalf("valid target-major snapshot rejected: %v", err)
	}
	obj := []float64{3, 5, 7}
	want, _ := fresh.Align(obj)
	got, err := e.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got.Target, want.Target) {
		t.Fatalf("target-major tiny snapshot aligns to %v, want %v", got.Target, want.Target)
	}
	e.Close()

	cases := []struct {
		name   string
		mutate func(s *tinySections)
	}{
		{"pointers sized for source rows", func(s *tinySections) { s.dmIndPtr = []int{0, 2, 4, 4} }},
		{"pointers start", func(s *tinySections) { s.dmIndPtr[0] = 1 }},
		{"pointers end", func(s *tinySections) { s.dmIndPtr[2] = 3 }},
		{"pointers decreasing", func(s *tinySections) { s.dmIndPtr[1] = 5; s.dmIndPtr[2] = 4 }},
		{"pointers interior overshoot", func(s *tinySections) { s.dmIndPtr[1] = 5 }},
		{"source row out of range", func(s *tinySections) { s.dmColIdx[1] = 3 }},
		{"source row negative", func(s *tinySections) { s.dmColIdx[0] = -1 }},
		{"source rows unsorted", func(s *tinySections) { s.dmColIdx[2], s.dmColIdx[3] = 1, 0 }},
		{"value count", func(s *tinySections) { s.dmVal = s.dmVal[:3] }},
		{"row sums length", func(s *tinySections) { s.rowSums = s.rowSums[:2] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := tinyTargetMajor(t)
			tc.mutate(s)
			e, _, err := LoadSnapshotBytes(s.encode(t), Options{})
			if err == nil {
				e.Close()
				t.Fatal("corrupt target-major snapshot accepted")
			}
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("err = %v, want errors.Is(err, snapshot.ErrCorrupt)", err)
			}
		})
	}
}
