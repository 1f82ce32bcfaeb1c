package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"geoalign/internal/linalg"
	"geoalign/internal/sparse"
)

// randDeltaRefs builds a random reference set mixing the two source
// conventions (explicit vector, DM-derived) with realistic sparsity:
// each source unit overlaps a handful of target units.
func randDeltaRefs(rng *rand.Rand, ns, nt, k int) []Reference {
	refs := make([]Reference, k)
	for r := 0; r < k; r++ {
		coo := sparse.NewCOO(ns, nt)
		for i := 0; i < ns; i++ {
			if rng.Float64() < 0.05 {
				continue // leave some rows empty: partial support
			}
			n := 1 + rng.Intn(3)
			used := map[int]bool{}
			for t := 0; t < n; t++ {
				j := rng.Intn(nt)
				if used[j] {
					continue
				}
				used[j] = true
				coo.Add(i, j, 1+rng.Float64()*100)
			}
		}
		ref := Reference{Name: fmt.Sprintf("ref%d", r), DM: coo.ToCSR()}
		if r%2 == 1 {
			src := make([]float64, ns)
			for i := range src {
				src[i] = rng.Float64() * 50
			}
			ref.Source = src
		}
		refs[r] = ref
	}
	return refs
}

// randDelta builds a random well-formed delta against the given
// references: a mix of value-only upserts, structural upserts, row
// deletes and source revisions.
func randDelta(rng *rand.Rand, refs []Reference, ns, nt int) Delta {
	var d Delta
	usedRow := map[[2]int]bool{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		p := RowPatch{Ref: rng.Intn(len(refs)), Row: rng.Intn(ns)}
		if usedRow[[2]int{p.Ref, p.Row}] {
			continue
		}
		usedRow[[2]int{p.Ref, p.Row}] = true
		switch rng.Intn(3) {
		case 0: // value-only: keep the row's column set
			cols, _ := refs[p.Ref].DM.Row(p.Row)
			p.Cols = append([]int(nil), cols...)
			p.Vals = make([]float64, len(cols))
			for t := range p.Vals {
				p.Vals[t] = rng.Float64() * 200
			}
		case 1: // structural: a fresh column set
			n := rng.Intn(4)
			used := map[int]bool{}
			for t := 0; t < n; t++ {
				j := rng.Intn(nt)
				if used[j] {
					continue
				}
				used[j] = true
				p.Cols = append(p.Cols, j)
			}
			sort.Ints(p.Cols)
			p.Vals = make([]float64, len(p.Cols))
			for t := range p.Vals {
				p.Vals[t] = rng.Float64() * 200
			}
		default:
			p.Delete = true
		}
		d.RowPatches = append(d.RowPatches, p)
	}
	usedSrc := map[[2]int]bool{}
	for n := rng.Intn(3); n > 0; n-- {
		p := SourcePatch{Ref: rng.Intn(len(refs)), Row: rng.Intn(ns), Value: rng.Float64() * 400}
		if usedSrc[[2]int{p.Ref, p.Row}] {
			continue
		}
		usedSrc[[2]int{p.Ref, p.Row}] = true
		d.SourcePatches = append(d.SourcePatches, p)
	}
	return d
}

// applyToRefs is the reference implementation the harness rebuilds
// from: it applies the delta to deep copies of the references by brute
// force, independent of every incremental path in ApplyDelta.
func applyToRefs(refs []Reference, d Delta) []Reference {
	out := make([]Reference, len(refs))
	for i, r := range refs {
		out[i] = Reference{Name: r.Name, DM: r.DM.Clone()}
		if r.Source != nil {
			out[i].Source = append([]float64(nil), r.Source...)
		}
	}
	byRef := map[int][]RowPatch{}
	for _, p := range d.RowPatches {
		byRef[p.Ref] = append(byRef[p.Ref], p)
	}
	for r, patches := range byRef {
		old := out[r].DM
		replaced := map[int]RowPatch{}
		for _, p := range patches {
			replaced[p.Row] = p
		}
		coo := sparse.NewCOO(old.Rows, old.Cols)
		for i := 0; i < old.Rows; i++ {
			if p, ok := replaced[i]; ok {
				for t, c := range p.Cols {
					coo.Add(i, c, p.Vals[t])
				}
				continue
			}
			cols, vals := old.Row(i)
			for t, c := range cols {
				coo.Add(i, c, vals[t])
			}
		}
		out[r].DM = coo.ToCSR()
	}
	for _, p := range d.SourcePatches {
		if out[p.Ref].Source == nil {
			out[p.Ref].Source = out[p.Ref].DM.RowSums()
		}
		out[p.Ref].Source[p.Row] = p.Value
	}
	return out
}

func closeTo(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func vecsClose(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if !closeTo(got[i], want[i], tol) {
			t.Fatalf("%s[%d]: %g (incremental) vs %g (rebuild)", what, i, got[i], want[i])
		}
	}
}

// checkEquivalence asserts the incremental engine matches one rebuilt
// from scratch on the same (patched) references: shared precompute
// bit-identical, union-pattern count equal, weights and estimates
// within 1e-9.
func checkEquivalence(t *testing.T, trial int, inc, rebuilt *Engine, objective []float64) {
	t.Helper()
	if !bitEqual(inc.gram.Design(), rebuilt.gram.Design()) {
		t.Fatalf("trial %d: design matrices differ bitwise", trial)
	}
	if got, want := inc.PatternNNZ(), rebuilt.PatternNNZ(); got != want {
		t.Fatalf("trial %d: PatternNNZ %d (incremental) vs %d (rebuild)", trial, got, want)
	}
	for kk := range inc.refs {
		if !bitEqual(inc.rowSums[kk], rebuilt.rowSums[kk]) {
			t.Fatalf("trial %d: row sums %d differ bitwise", trial, kk)
		}
		if inc.maxRow[kk] != rebuilt.maxRow[kk] {
			t.Fatalf("trial %d: max row sum %d differs", trial, kk)
		}
		if !intsEqual(inc.refs[kk].DM.IndPtr, rebuilt.refs[kk].DM.IndPtr) ||
			!intsEqual(inc.refs[kk].DM.ColIdx, rebuilt.refs[kk].DM.ColIdx) ||
			!bitEqual(inc.refs[kk].DM.Val, rebuilt.refs[kk].DM.Val) {
			t.Fatalf("trial %d: reference %d crosswalk differs", trial, kk)
		}
	}
	gi, gr := inc.gram.Gram(), rebuilt.gram.Gram()
	for i := range gi.Data {
		if !closeTo(gi.Data[i], gr.Data[i], 1e-9) {
			t.Fatalf("trial %d: Gram[%d]: %g vs %g", trial, i, gi.Data[i], gr.Data[i])
		}
	}
	if inc.gram.AInf != rebuilt.gram.AInf {
		t.Fatalf("trial %d: ‖A‖∞ %g vs %g", trial, inc.gram.AInf, rebuilt.gram.AInf)
	}

	ri, err := inc.Align(objective)
	if err != nil {
		t.Fatalf("trial %d: incremental align: %v", trial, err)
	}
	rr, err := rebuilt.Align(objective)
	if err != nil {
		t.Fatalf("trial %d: rebuilt align: %v", trial, err)
	}
	vecsClose(t, fmt.Sprintf("trial %d weights", trial), ri.Weights, rr.Weights, 1e-9)
	vecsClose(t, fmt.Sprintf("trial %d target", trial), ri.Target, rr.Target, 1e-9)
}

// TestApplyDeltaRebuildEquivalence is the headline harness: randomized
// delta sequences applied incrementally must match a from-scratch
// rebuild on the patched references within 1e-9 — weights, estimates,
// the shared precompute (design matrix, row sums) bit-identically and
// the union-pattern count exactly. Half the trials count the pattern
// before the first delta, so every step hands the count on through the
// value-only or structural adjustment; the other half leave it to be
// counted lazily. Trials run in parallel so `go test -race` also
// exercises concurrent construction, and each chain step aligns on the
// parent while ApplyDelta derives the child (live traffic during
// maintenance).
func TestApplyDeltaRebuildEquivalence(t *testing.T) {
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seq%03d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(9000 + trial)))
			ns := 30 + rng.Intn(90)
			nt := 8 + rng.Intn(24)
			k := 2 + rng.Intn(5)
			refs := randDeltaRefs(rng, ns, nt, k)
			opts := Options{}
			eng, err := NewEngine(refs, opts)
			if err != nil {
				t.Fatal(err)
			}
			counted := trial%2 == 0
			if counted {
				eng.PatternNNZ()
			}
			objective := make([]float64, ns)
			for i := range objective {
				objective[i] = rng.Float64() * 1000
			}

			steps := 1 + rng.Intn(4)
			cur := eng
			curRefs := refs
			for s := 0; s < steps; s++ {
				d := randDelta(rng, curRefs, ns, nt)

				// Live traffic on the parent while the child derives.
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := cur.Align(objective); err != nil {
						t.Errorf("step %d: concurrent align: %v", s, err)
					}
				}()
				next, err := cur.ApplyDelta(d)
				wg.Wait()
				if err != nil {
					t.Fatalf("step %d: ApplyDelta: %v", s, err)
				}
				if counted != (next.patNNZ.Load() > 0) {
					t.Fatalf("step %d: pattern count handed on = %v, want %v", s, !counted, counted)
				}
				cur = next
				curRefs = applyToRefs(curRefs, d)
			}

			rebuilt, err := NewEngine(curRefs, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, trial, cur, rebuilt, objective)
		})
	}
}

// TestApplyDeltaParentUnchanged pins the copy-on-write contract: the
// parent engine's results are bitwise identical before and after a
// delta is derived from it, including structural patches.
func TestApplyDeltaParentUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	refs := randDeltaRefs(rng, 60, 15, 4)
	eng, err := NewEngine(refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objective := make([]float64, 60)
	for i := range objective {
		objective[i] = rng.Float64() * 100
	}
	before, err := eng.Align(objective)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		if _, err := eng.ApplyDelta(randDelta(rng, refs, 60, 15)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	after, err := eng.Align(objective)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(before.Weights, after.Weights) || !bitEqual(before.Target, after.Target) {
		t.Fatal("parent results changed after deriving deltas")
	}
}

// TestApplyDeltaZeroSupport drives a source unit out of every
// reference's support and back, checking the Eq. 14 degenerate case
// follows: the unit's mass is dropped, then redistributed again.
func TestApplyDeltaZeroSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	ns, nt := 40, 10
	refs := randDeltaRefs(rng, ns, nt, 3)
	eng, err := NewEngine(refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng.PatternNNZ()
	row := 7
	objective := make([]float64, ns)
	for i := range objective {
		objective[i] = 1
	}
	objective[row] = 1000
	// targetMass aligns the objective and returns the target total,
	// net of units no reference supports other than row.
	targetMass := func(e *Engine) float64 {
		t.Helper()
		res, err := e.Align(objective)
		if err != nil {
			t.Fatal(err)
		}
		var m float64
		for _, v := range res.Target {
			m += v
		}
		for i := range objective {
			if i != row && e.rowSupport(i) == 0 {
				m += objective[i]
			}
		}
		return m
	}
	if eng.rowSupport(row) == 0 {
		t.Fatalf("row %d unsupported before the delta", row)
	}

	var del Delta
	for r := range refs {
		del.RowPatches = append(del.RowPatches, RowPatch{Ref: r, Row: row, Delete: true})
	}
	dropped, err := eng.ApplyDelta(del)
	if err != nil {
		t.Fatal(err)
	}
	if m := targetMass(dropped); math.Abs(m-float64(ns-1)) > 1e-9*float64(ns) {
		t.Fatalf("row deleted from every reference: target mass %v, want %d", m, ns-1)
	}
	restore := Delta{RowPatches: []RowPatch{{Ref: 0, Row: row, Cols: []int{2, 5}, Vals: []float64{3, 4}}}}
	back, err := dropped.ApplyDelta(restore)
	if err != nil {
		t.Fatal(err)
	}
	if m := targetMass(back); math.Abs(m-float64(ns-1+1000)) > 1e-9*float64(ns+1000) {
		t.Fatalf("row restored to a reference: target mass %v, want %d", m, ns-1+1000)
	}
	// And the full rebuild agrees end to end, pattern count included.
	for i := range objective {
		objective[i] = rng.Float64() * 10
	}
	rebuilt, err := NewEngine(applyToRefs(applyToRefs(refs, del), restore), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, 0, back, rebuilt, objective)
}

func TestApplyDeltaValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	refs := randDeltaRefs(rng, 20, 8, 3)
	eng, err := NewEngine(refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    Delta
	}{
		{"empty", Delta{}},
		{"ref out of range", Delta{RowPatches: []RowPatch{{Ref: 3, Row: 0, Delete: true}}}},
		{"negative ref", Delta{RowPatches: []RowPatch{{Ref: -1, Row: 0, Delete: true}}}},
		{"row out of range", Delta{RowPatches: []RowPatch{{Ref: 0, Row: 20, Delete: true}}}},
		{"delete with cols", Delta{RowPatches: []RowPatch{{Ref: 0, Row: 0, Delete: true, Cols: []int{1}, Vals: []float64{1}}}}},
		{"ragged cols/vals", Delta{RowPatches: []RowPatch{{Ref: 0, Row: 0, Cols: []int{1, 2}, Vals: []float64{1}}}}},
		{"unsorted cols", Delta{RowPatches: []RowPatch{{Ref: 0, Row: 0, Cols: []int{3, 1}, Vals: []float64{1, 2}}}}},
		{"duplicate cols", Delta{RowPatches: []RowPatch{{Ref: 0, Row: 0, Cols: []int{2, 2}, Vals: []float64{1, 2}}}}},
		{"col out of range", Delta{RowPatches: []RowPatch{{Ref: 0, Row: 0, Cols: []int{8}, Vals: []float64{1}}}}},
		{"negative value", Delta{RowPatches: []RowPatch{{Ref: 0, Row: 0, Cols: []int{1}, Vals: []float64{-1}}}}},
		{"NaN value", Delta{RowPatches: []RowPatch{{Ref: 0, Row: 0, Cols: []int{1}, Vals: []float64{math.NaN()}}}}},
		{"Inf value", Delta{RowPatches: []RowPatch{{Ref: 0, Row: 0, Cols: []int{1}, Vals: []float64{math.Inf(1)}}}}},
		{"duplicate row patch", Delta{RowPatches: []RowPatch{
			{Ref: 1, Row: 4, Delete: true},
			{Ref: 1, Row: 4, Cols: []int{0}, Vals: []float64{1}},
		}}},
		{"source ref out of range", Delta{SourcePatches: []SourcePatch{{Ref: 5, Row: 0, Value: 1}}}},
		{"source row out of range", Delta{SourcePatches: []SourcePatch{{Ref: 0, Row: -1, Value: 1}}}},
		{"source NaN", Delta{SourcePatches: []SourcePatch{{Ref: 0, Row: 0, Value: math.NaN()}}}},
		{"source negative", Delta{SourcePatches: []SourcePatch{{Ref: 0, Row: 0, Value: -2}}}},
		{"duplicate source patch", Delta{SourcePatches: []SourcePatch{
			{Ref: 2, Row: 1, Value: 1},
			{Ref: 2, Row: 1, Value: 2},
		}}},
	}
	for _, tc := range cases {
		if _, err := eng.ApplyDelta(tc.d); !errors.Is(err, ErrBadDelta) {
			t.Errorf("%s: got err %v, want ErrBadDelta", tc.name, err)
		}
	}
}

// TestApplyDeltaSnapshotParent derives a delta from a snapshot-backed
// engine, closes the parent (as the serving registry does once the old
// generation drains), and checks the child still matches a rebuild —
// i.e. nothing in the child aliases the unmapped file.
func TestApplyDeltaSnapshotParent(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	ns, nt := 50, 12
	refs := randDeltaRefs(rng, ns, nt, 4)
	built, err := NewEngine(refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "eng.snap")
	if err := built.WriteSnapshotFile(path, nil); err != nil {
		t.Fatal(err)
	}
	parent, _, err := LoadSnapshot(path, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 10; trial++ {
		d := randDelta(rng, refs, ns, nt)
		child, err := parent.ApplyDelta(d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if child.FromSnapshot() {
			t.Fatal("delta-derived engine must not be snapshot-backed")
		}
		// Tear the parent's mapping out from under the child.
		if err := parent.Close(); err != nil {
			t.Fatal(err)
		}
		objective := make([]float64, ns)
		for i := range objective {
			objective[i] = rng.Float64() * 100
		}
		rebuilt, err := NewEngine(applyToRefs(refs, d), Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, trial, child, rebuilt, objective)
		// Remap for the next trial (Close is idempotent; reopen fresh).
		parent, _, err = LoadSnapshot(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	parent.Close()
}

// TestNormSrcExtractionRace is the regression test for the data race
// between the lazy normSrc extraction (first AlignWithSources on a
// snapshot-loaded or delta-derived engine) and PrecomputeBytes, which
// the serving registry polls concurrently. Run with -race.
func TestNormSrcExtractionRace(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	ns, nt := 40, 10
	refs := randDeltaRefs(rng, ns, nt, 3)
	built, err := NewEngine(refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "eng.snap")
	if err := built.WriteSnapshotFile(path, nil); err != nil {
		t.Fatal(err)
	}
	eng, _, err := LoadSnapshot(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	objective := make([]float64, ns)
	overrides := make([][]float64, 3)
	src := make([]float64, ns)
	for i := range objective {
		objective[i] = rng.Float64() * 10
		src[i] = rng.Float64() * 5
	}
	overrides[1] = src

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					eng.PrecomputeBytes()
				} else if _, err := eng.AlignWithSources(objective, overrides); err != nil {
					t.Errorf("AlignWithSources: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// The delta path must coexist with the lazy extraction too.
	child, err := eng.ApplyDelta(Delta{SourcePatches: []SourcePatch{{Ref: 0, Row: 1, Value: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	var wg2 sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					child.PrecomputeBytes()
				} else if _, err := child.AlignWithSources(objective, overrides); err != nil {
					t.Errorf("child AlignWithSources: %v", err)
					return
				}
			}
		}()
	}
	wg2.Wait()
}

// TestPatternNNZAfterDeltas: the union-pattern count a counted parent
// hands on through value-only and structural deltas equals a fresh
// count of the derived engine's crosswalks, including patches that move
// the same source row in two references at once, delete rows, and add
// or drop entries other references still hold.
func TestPatternNNZAfterDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	const ns, nt, k = 40, 9, 3
	refs := randDeltaRefs(rng, ns, nt, k)
	row := func(r, i int) ([]int, []float64) {
		cols, vals := refs[r].DM.Row(i)
		return append([]int(nil), cols...), append([]float64(nil), vals...)
	}
	c0, v0 := row(0, 5)
	for q := range v0 {
		v0[q] *= 2
	}
	deltas := map[string]Delta{
		"value-only": {RowPatches: []RowPatch{{Ref: 0, Row: 5, Cols: c0, Vals: v0}}},
		"structural, one row in two references": {RowPatches: []RowPatch{
			{Ref: 0, Row: 7, Cols: []int{0, 3, 8}, Vals: []float64{1, 2, 3}},
			{Ref: 2, Row: 7, Cols: []int{3}, Vals: []float64{4}},
		}},
		"deletes": {RowPatches: []RowPatch{
			{Ref: 1, Row: 0, Delete: true},
			{Ref: 1, Row: ns - 1, Delete: true},
			{Ref: 2, Row: 12, Delete: true},
		}},
		"mixed": {RowPatches: []RowPatch{
			{Ref: 0, Row: 5, Cols: c0, Vals: v0},
			{Ref: 1, Row: 20, Cols: []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, Vals: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}},
			{Ref: 2, Row: 21},
		}},
	}
	for name, d := range deltas {
		t.Run(name, func(t *testing.T) {
			parent, err := NewEngine(refs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			parent.PatternNNZ()
			child, err := parent.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			if child.patNNZ.Load() == 0 {
				t.Fatal("counted parent did not hand its pattern count on")
			}
			fresh, err := NewEngine(applyToRefs(refs, d), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := child.PatternNNZ(), fresh.PatternNNZ(); got != want {
				t.Fatalf("PatternNNZ after delta = %d, fresh count %d", got, want)
			}
			// The child's own recount agrees with what it was handed.
			handed := child.PatternNNZ()
			child.patNNZ.Store(0)
			if got := child.PatternNNZ(); got != handed {
				t.Fatalf("recount %d, handed on %d", got, handed)
			}
		})
	}
}

// blockRevision returns a delta that revises rows of block b of the
// design matrix: a value-row patch scaling row lo+off of nil-Source
// reference 0 down by 10%, and a source patch halving row lo+off+1 of
// explicit-Source reference 1. Neither row holds its column's maximum,
// so both take the row-wise update path.
func blockRevision(t *testing.T, e *Engine, refs []Reference, b, off int) Delta {
	t.Helper()
	pick := func(ok func(i int) bool) int {
		for i := b*linalg.GramBlockRows + off; i < e.ns; i++ {
			if ok(i) {
				return i
			}
		}
		t.Fatalf("block %d: no row to revise", b)
		return -1
	}
	row := pick(func(i int) bool {
		cols, _ := refs[0].DM.Row(i)
		return len(cols) > 0 && e.rowSums[0][i] < e.maxRow[0]
	})
	cols, vals := refs[0].DM.Row(row)
	scaled := make([]float64, len(vals))
	for q, v := range vals {
		scaled[q] = 0.9 * v
	}
	src := pick(func(i int) bool { return i > row && refs[1].Source[i] < e.srcMax[1] })
	return Delta{
		RowPatches:    []RowPatch{{Ref: 0, Row: row, Cols: append([]int(nil), cols...), Vals: scaled}},
		SourcePatches: []SourcePatch{{Ref: 1, Row: src, Value: refs[1].Source[src] / 2}},
	}
}

// TestApplyDeltaSiblingBlocks derives sibling engines from one parent
// whose design matrix spans more than three row blocks, each sibling
// revising rows in a different block. The parent must align
// bit-identically before and after, each sibling must match a rebuild
// from its patched references and keep its own results while later
// siblings (and a grandchild) are derived, and every block a sibling
// did not revise must still be the parent's. A write into a block
// shared with the parent or a sibling fails here.
func TestApplyDeltaSiblingBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	ns, nt, k := 3*linalg.GramBlockRows+257, 40, 4
	refs := randDeltaRefs(rng, ns, nt, k)
	parent, err := NewEngine(refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objective := make([]float64, ns)
	for i := range objective {
		objective[i] = rng.Float64() * 1000
	}
	before, err := parent.Align(objective)
	if err != nil {
		t.Fatal(err)
	}
	design := append([]float64(nil), parent.gram.Design()...)

	type sibling struct {
		e    *Engine
		refs []Reference
		res  *Result
	}
	var sibs []sibling
	derive := func(trial int, from *Engine, fromRefs []Reference, b int) sibling {
		t.Helper()
		d := blockRevision(t, from, fromRefs, b, 11*trial)
		child, err := from.ApplyDelta(d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		childRefs := applyToRefs(fromRefs, d)
		rebuilt, err := NewEngine(childRefs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, trial, child, rebuilt, objective)
		for ob := 0; ob*linalg.GramBlockRows < ns; ob++ {
			i := ob * linalg.GramBlockRows
			if shared := &child.gram.Row(i)[0] == &from.gram.Row(i)[0]; shared != (ob != b) {
				t.Fatalf("trial %d: block %d shared with the parent = %v after revising block %d", trial, ob, shared, b)
			}
		}
		res, err := child.Align(objective)
		if err != nil {
			t.Fatal(err)
		}
		return sibling{child, childRefs, res}
	}
	for b := 0; b*linalg.GramBlockRows < ns; b++ {
		sibs = append(sibs, derive(b, parent, refs, b))
	}
	sibs = append(sibs, derive(len(sibs), sibs[0].e, sibs[0].refs, 2))

	for n, s := range sibs {
		res, err := s.e.Align(objective)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(res.Weights, s.res.Weights) || !bitEqual(res.Target, s.res.Target) {
			t.Fatalf("sibling %d results changed after later siblings were derived", n)
		}
	}
	after, err := parent.Align(objective)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(before.Weights, after.Weights) || !bitEqual(before.Target, after.Target) {
		t.Fatal("parent results changed after deriving siblings")
	}
	if !bitEqual(parent.gram.Design(), design) {
		t.Fatal("parent design matrix changed after deriving siblings")
	}
}

// TestApplyDeltaValueRowAlloc pins what a value-row delta allocates on
// a heap parent: one design-matrix block, the patched reference's row
// sums and values, and a small fixed allowance — less than one copy of
// the design matrix, which the delta no longer makes.
func TestApplyDeltaValueRowAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ns, nt, k := 4*linalg.GramBlockRows, 64, 8
	refs := randDeltaRefs(rng, ns, nt, k)
	parent, err := NewEngine(refs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := blockRevision(t, parent, refs, 1, 0)
	d.SourcePatches = nil
	// The first delta counts the parent's per-row entries once.
	if _, err := parent.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for r := 0; r < runs; r++ {
		if _, err := parent.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perOp := (m1.TotalAlloc - m0.TotalAlloc) / runs
	const word = 8
	block := uint64(linalg.GramBlockRows * k * word)
	budget := block + uint64(ns*word+refs[0].DM.NNZ()*word) + 64<<10
	if design := uint64(ns * k * word); budget >= design {
		t.Fatalf("budget %d B does not sit below one design-matrix copy (%d B)", budget, design)
	}
	if perOp > budget {
		t.Fatalf("value-row delta allocates %d B/op, budget %d B (one %d B block, row sums, values, 64 KiB)", perOp, budget, block)
	}
}
