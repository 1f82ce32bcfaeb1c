package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"geoalign/internal/linalg"
	"geoalign/internal/sparse"
)

// This file implements incremental engine maintenance: ApplyDelta
// derives a new Engine from a typed description of what changed —
// crosswalk rows upserted or deleted, published source aggregates
// revised — without re-running the O(ns·k²) build pipeline. The derived
// engine shares every untouched precompute array with its parent
// (copy-on-write), so a single-row delta costs a few array copies plus
// an O(k²) rank-one correction of the Gram system instead of a full
// rebuild; the serving layer publishes it as a new generation via
// Registry.SwapOwned with zero downtime.
//
// Three maintenance tiers, in increasing cost:
//
//   - value-only crosswalk patches (the row's column set is unchanged)
//     share the reference's target pointers and source-row indices and
//     replace only its value array;
//   - structural patches (columns added or removed, rows deleted)
//     rebuild the patched reference's target-major arrays in one merge
//     pass, and adjust a counted PatternNNZ by re-checking only the
//     entries the patched rows held or now hold;
//   - a revision that moves a design column's max-normaliser rescales
//     the whole column, so that column's Gram row/column is recomputed
//     by exact dot products — the row-wise Gram update applies only
//     while column maxes hold (compared exactly: rebuild equivalence
//     is bit-level there).

// ErrBadDelta is the sentinel wrapped by every delta validation
// failure, so callers (and the HTTP layer) can distinguish a malformed
// delta from an engine fault.
var ErrBadDelta = errors.New("core: bad delta")

// deltaRowUpdateMax bounds the number of per-row rank-one Gram updates
// one delta may perform; beyond it the changed columns are recomputed
// wholesale, which is both faster (O(ns·k) per column beats
// rows·O(k²) chains) and numerically tighter for bulk revisions.
const deltaRowUpdateMax = 256

// RowPatch upserts (or deletes) one row of one reference's crosswalk.
// Cols must be strictly increasing target-unit indices and Vals their
// non-negative entries; the pair replaces the row outright. Delete
// clears the row (Cols/Vals must be empty) — the source unit leaves
// that reference's support.
type RowPatch struct {
	Ref    int       `json:"ref"`
	Row    int       `json:"row"`
	Cols   []int     `json:"cols,omitempty"`
	Vals   []float64 `json:"vals,omitempty"`
	Delete bool      `json:"delete,omitempty"`
}

// SourcePatch revises one entry of a reference's published source
// aggregate vector (the Eq. 15 input). For references without an
// explicit Source the current effective source — the crosswalk row sums
// — is materialised first, then overridden at Row.
type SourcePatch struct {
	Ref   int     `json:"ref"`
	Row   int     `json:"row"`
	Value float64 `json:"value"`
}

// Delta is one atomic batch of reference revisions. Applying it yields
// a new engine generation; the receiver is never modified.
type Delta struct {
	RowPatches    []RowPatch    `json:"row_patches,omitempty"`
	SourcePatches []SourcePatch `json:"source_patches,omitempty"`
}

// Empty reports whether the delta carries no patches.
func (d *Delta) Empty() bool {
	return len(d.RowPatches) == 0 && len(d.SourcePatches) == 0
}

// Validate checks the delta against an engine shape: ns source units,
// nt target units, k references. Every failure wraps ErrBadDelta.
func (d *Delta) Validate(ns, nt, k int) error {
	if d.Empty() {
		return fmt.Errorf("%w: empty delta", ErrBadDelta)
	}
	seenRow := make(map[[2]int]bool, len(d.RowPatches))
	for i, p := range d.RowPatches {
		if p.Ref < 0 || p.Ref >= k {
			return fmt.Errorf("%w: row patch %d: reference %d out of range [0,%d)", ErrBadDelta, i, p.Ref, k)
		}
		if p.Row < 0 || p.Row >= ns {
			return fmt.Errorf("%w: row patch %d: row %d out of range [0,%d)", ErrBadDelta, i, p.Row, ns)
		}
		key := [2]int{p.Ref, p.Row}
		if seenRow[key] {
			return fmt.Errorf("%w: row patch %d: duplicate patch for reference %d row %d", ErrBadDelta, i, p.Ref, p.Row)
		}
		seenRow[key] = true
		if p.Delete {
			if len(p.Cols) != 0 || len(p.Vals) != 0 {
				return fmt.Errorf("%w: row patch %d: delete carries %d cols and %d vals", ErrBadDelta, i, len(p.Cols), len(p.Vals))
			}
			continue
		}
		if len(p.Cols) != len(p.Vals) {
			return fmt.Errorf("%w: row patch %d: %d cols for %d vals", ErrBadDelta, i, len(p.Cols), len(p.Vals))
		}
		prev := -1
		for t, c := range p.Cols {
			if c <= prev || c >= nt {
				return fmt.Errorf("%w: row patch %d: columns not strictly increasing in [0,%d)", ErrBadDelta, i, nt)
			}
			prev = c
			v := p.Vals[t]
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("%w: row patch %d: value %g is not finite and non-negative", ErrBadDelta, i, v)
			}
		}
	}
	seenSrc := make(map[[2]int]bool, len(d.SourcePatches))
	for i, p := range d.SourcePatches {
		if p.Ref < 0 || p.Ref >= k {
			return fmt.Errorf("%w: source patch %d: reference %d out of range [0,%d)", ErrBadDelta, i, p.Ref, k)
		}
		if p.Row < 0 || p.Row >= ns {
			return fmt.Errorf("%w: source patch %d: row %d out of range [0,%d)", ErrBadDelta, i, p.Row, ns)
		}
		key := [2]int{p.Ref, p.Row}
		if seenSrc[key] {
			return fmt.Errorf("%w: source patch %d: duplicate patch for reference %d row %d", ErrBadDelta, i, p.Ref, p.Row)
		}
		seenSrc[key] = true
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) || p.Value < 0 {
			return fmt.Errorf("%w: source patch %d: value %g is not finite and non-negative", ErrBadDelta, i, p.Value)
		}
	}
	return nil
}

// colPlan describes one design-matrix column whose raw source changed.
type colPlan struct {
	ref            int
	raw            []float64 // the column's new raw source vector
	rows           []int     // rows whose raw entry changed (row path only)
	oldMax, newMax float64
}

// ApplyDelta derives a new engine with the delta applied. The receiver
// is not modified and stays fully usable — in-flight Aligns continue on
// it — so a serving layer can hot-swap generations with zero downtime.
// Untouched precompute arrays are shared between parent and child,
// except when the parent is snapshot-backed: its arrays alias a mapping
// that unmapping (Close) would tear out from under the child, so a
// snapshot-backed parent deep-copies everything and the child owns its
// memory outright (the child is never snapshot-backed).
//
// The derived engine's weights and estimates match an engine rebuilt
// from the patched references to ~1e-9 (bit-identical when no design
// column's max-normaliser moved); the rebuild-equivalence harness in
// delta_test.go pins that.
func (e *Engine) ApplyDelta(d Delta) (*Engine, error) {
	if err := d.Validate(e.ns, e.nt, len(e.refs)); err != nil {
		return nil, err
	}
	deep := e.snap != nil
	k := len(e.refs)

	ne := &Engine{
		ns:   e.ns,
		nt:   e.nt,
		refs: append([]Reference(nil), e.refs...),
		opts: e.opts,
	}

	rowsByRef := make(map[int][]RowPatch)
	for _, p := range d.RowPatches {
		rowsByRef[p.Ref] = append(rowsByRef[p.Ref], p)
	}
	srcByRef := make(map[int][]SourcePatch)
	for _, p := range d.SourcePatches {
		srcByRef[p.Ref] = append(srcByRef[p.Ref], p)
	}

	// 1. Patch reference crosswalks and the Eq. 14 row-sum normalisers.
	// touched collects the (row, target) entries structural patches
	// removed or added, the only places the union pattern can change.
	var touched [][2]int
	counts := e.rowCounts()
	ne.rowNNZ = append([][]int32(nil), counts...)
	ne.rowSums = make([][]float64, k)
	ne.maxRow = append([]float64(nil), e.maxRow...)
	ne.srcMax = append([]float64(nil), e.srcMax...)
	for r := 0; r < k; r++ {
		patches := rowsByRef[r]
		if len(patches) == 0 {
			ne.rowSums[r] = e.rowSums[r]
			if deep {
				ne.refs[r].DM = e.refs[r].DM.Clone()
				if e.refs[r].Source != nil {
					ne.refs[r].Source = append([]float64(nil), e.refs[r].Source...)
				}
				ne.rowSums[r] = append([]float64(nil), e.rowSums[r]...)
			}
			continue
		}
		dm, moved := patchTargetMajor(e.refs[r].DM, counts[r], patches, deep)
		ne.refs[r].DM = dm
		touched = append(touched, moved...)
		if moved != nil {
			n := append([]int32(nil), counts[r]...)
			for _, p := range patches {
				n[p.Row] = int32(len(p.Cols))
			}
			ne.rowNNZ[r] = n
		}
		if deep && e.refs[r].Source != nil {
			ne.refs[r].Source = append([]float64(nil), e.refs[r].Source...)
		}
		sums := append([]float64(nil), e.rowSums[r]...)
		rows := make([]int, len(patches))
		for t, p := range patches {
			sums[p.Row] = linalg.Sum(p.Vals)
			rows[t] = p.Row
		}
		ne.rowSums[r] = sums
		ne.maxRow[r] = keptMax(e.maxRow[r], e.rowSums[r], sums, rows)
	}

	// 2. Materialise revised source vectors and plan the design-matrix
	// column maintenance. A reference's design column derives from its
	// published Source when present, else from its crosswalk row sums.
	var plans []colPlan
	for r := 0; r < k; r++ {
		src := srcByRef[r]
		rowPatched := len(rowsByRef[r]) > 0
		hadSource := e.refs[r].Source != nil
		if len(src) == 0 && (!rowPatched || hadSource) {
			continue // design column unchanged
		}
		// The column's max-normaliser before the delta: the Source max
		// or, for a nil-Source reference, the row-sum max (the row sums
		// are non-negative, so MaxAbs and maxOf agree on them).
		oldMax := e.maxRow[r]
		if hadSource {
			oldMax = e.srcMax[r]
		}
		var newRaw []float64
		var newMax float64
		changed := make(map[int]bool)
		if len(src) > 0 {
			base, baseMax := e.refs[r].Source, e.srcMax[r]
			if !hadSource {
				// Materialise the effective source (the patched row sums)
				// as an explicit vector before overriding entries.
				base, baseMax = ne.rowSums[r], ne.maxRow[r]
				if rowPatched {
					for _, p := range rowsByRef[r] {
						changed[p.Row] = true
					}
				}
			}
			newRaw = append([]float64(nil), base...)
			srcRows := make([]int, len(src))
			for t, p := range src {
				newRaw[p.Row] = p.Value
				changed[p.Row] = true
				srcRows[t] = p.Row
			}
			newMax = keptMax(baseMax, base, newRaw, srcRows)
			ne.refs[r].Source = newRaw
			ne.srcMax[r] = newMax
		} else {
			// nil-Source reference with crosswalk patches: the design
			// column follows the patched row sums.
			newRaw, newMax = ne.rowSums[r], ne.maxRow[r]
			for _, p := range rowsByRef[r] {
				changed[p.Row] = true
			}
		}
		rows := make([]int, 0, len(changed))
		for i := range changed {
			rows = append(rows, i)
		}
		sort.Ints(rows)
		plans = append(plans, colPlan{
			ref:    r,
			raw:    newRaw,
			rows:   rows,
			oldMax: oldMax,
			newMax: newMax,
		})
	}

	// 3. Maintain the design matrix and Gram system.
	e.applyColumnPlans(ne, plans, deep)

	// 4. Hand on the union-pattern count if the parent has taken it (0
	// means not yet counted): only entries structural patches touched
	// can move it.
	nnz := e.patNNZ.Load()
	if nnz > 0 && len(touched) > 0 {
		seen := make(map[[2]int]bool, len(touched))
		for _, rc := range touched {
			if seen[rc] {
				continue
			}
			seen[rc] = true
			if inPattern(ne.refs, rc[1], rc[0]) {
				nnz++
			}
			if inPattern(e.refs, rc[1], rc[0]) {
				nnz--
			}
		}
	}
	ne.patNNZ.Store(nnz)

	ne.initPools()
	return ne, nil
}

// applyColumnPlans executes the design-matrix maintenance plans against
// a mutable clone of the Gram system (or shares the parent's when no
// column changed). Plans whose column max held use per-row rank-one
// updates, which copy only the design-matrix blocks they write; plans
// whose max moved — or an oversized row batch — rewrite the whole
// column and recompute its Gram row/column exactly. A snapshot-backed
// parent's blocks alias its mapping, so a deep clone owns them all.
func (e *Engine) applyColumnPlans(ne *Engine, plans []colPlan, deep bool) {
	var rowPlans, bulkPlans []colPlan
	totalRows := 0
	for _, pl := range plans {
		switch {
		case pl.newMax != pl.oldMax:
			bulkPlans = append(bulkPlans, pl)
		case pl.newMax == 0:
			// All-zero column before and after: the normalised column is
			// zeros either way, nothing to maintain.
		default:
			rowPlans = append(rowPlans, pl)
			totalRows += len(pl.rows)
		}
	}
	if totalRows > deltaRowUpdateMax {
		bulkPlans = append(bulkPlans, rowPlans...)
		rowPlans = nil
	}
	if len(rowPlans) == 0 && len(bulkPlans) == 0 && !deep {
		// The design matrix is element-wise unchanged.
		ne.gram = e.gram
		return
	}

	gs := e.gram.MutableClone()
	if deep {
		gs.Own()
	}
	// Row path first: the rank-one updates write whole design rows, and
	// any stale entries they carry in bulk columns are overwritten (and
	// their Gram contributions recomputed) by the column path below.
	if len(rowPlans) > 0 {
		edits := make(map[int][]colPlan) // row -> plans touching it
		for _, pl := range rowPlans {
			for _, i := range pl.rows {
				edits[i] = append(edits[i], pl)
			}
		}
		rows := make([]int, 0, len(edits))
		for i := range edits {
			rows = append(rows, i)
		}
		sort.Ints(rows)
		newRow := make([]float64, gs.Cols())
		for _, i := range rows {
			copy(newRow, gs.Row(i))
			for _, pl := range edits[i] {
				newRow[pl.ref] = pl.raw[i] / pl.newMax
			}
			gs.UpdateRow(i, newRow)
		}
	}
	if len(bulkPlans) > 0 {
		cols := make([]int, len(bulkPlans))
		vals := make([][]float64, len(bulkPlans))
		for t, pl := range bulkPlans {
			col := make([]float64, e.ns)
			if pl.newMax > 0 {
				for i, v := range pl.raw {
					col[i] = v / pl.newMax
				}
			}
			cols[t], vals[t] = pl.ref, col
		}
		gs.RecomputeColumns(cols, vals)
	}
	gs.RefreshInfNorm()
	ne.gram = gs
}

// rowCounts returns each reference's stored entries per source row,
// counting them on first use unless ApplyDelta handed them on.
func (e *Engine) rowCounts() [][]int32 {
	e.rowNNZOnce.Do(func() {
		if e.rowNNZ != nil {
			return
		}
		counts := make([][]int32, len(e.refs))
		for k, r := range e.refs {
			n := make([]int32, e.ns)
			for _, i := range r.DM.ColIdx {
				n[i]++
			}
			counts[k] = n
		}
		e.rowNNZ = counts
	})
	return e.rowNNZ
}

// patchTargetMajor applies one reference's row patches to its
// target-major crosswalk xt (nt × ns), whose stored entries per source
// row are rowNNZ. It returns the patched crosswalk and, when some patch
// was structural (changed its row's target set), the (row, target)
// entries the patched rows held before or hold now; nil when every
// patch was value-only.
//
// A patch is value-only when its row stores as many entries as the
// patch lists and every listed target unit holds the row, found by
// binary search in that unit's ascending source rows. A value-only set
// shares IndPtr/ColIdx with xt (copied when deep) and writes the new
// values into a copy of Val at the entries' places. A structural set
// finds the patched rows' old entries in one pass over the source-row
// indices (a range check against the patched rows keeps it a compare
// per entry) and rebuilds all three arrays in one merge of the kept
// entries with the patched rows' new ones, in O(nnz + nt),
// block-copying every target unit no patch touched.
func patchTargetMajor(xt *sparse.CSR, rowNNZ []int32, patches []RowPatch, deep bool) (*sparse.CSR, [][2]int) {
	nt := xt.Rows
	if at := valueOnlyPlaces(xt, rowNNZ, patches); at != nil {
		val := append([]float64(nil), xt.Val...)
		for t, p := range patches {
			for q, j := range at[t] {
				val[j] = p.Vals[q]
			}
		}
		indptr, rowIdx := xt.IndPtr, xt.ColIdx
		if deep {
			indptr = append([]int(nil), indptr...)
			rowIdx = append([]int(nil), rowIdx...)
		}
		return &sparse.CSR{Rows: nt, Cols: xt.Cols, IndPtr: indptr, ColIdx: rowIdx, Val: val}, nil
	}

	sorted := append([]RowPatch(nil), patches...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Row < sorted[j].Row })
	prows := make([]int, len(sorted))
	for t, p := range sorted {
		prows[t] = p.Row
	}
	minRow, maxRow := prows[0], prows[len(prows)-1]
	// patchOf returns the index into sorted of the patch for source row
	// i, or -1.
	patchOf := func(i int) int {
		if i < minRow || i > maxRow {
			return -1
		}
		if t := sort.SearchInts(prows, i); prows[t] == i {
			return t
		}
		return -1
	}

	old := make([][]int, len(sorted)) // previous target units per patch
	span := uint(maxRow - minRow)
	for j, i := range xt.ColIdx {
		if uint(i-minRow) > span {
			continue
		}
		if t := patchOf(i); t >= 0 {
			old[t] = append(old[t], sort.SearchInts(xt.IndPtr, j+1)-1)
		}
	}
	var touched [][2]int
	for t, p := range sorted {
		for _, c := range old[t] {
			touched = append(touched, [2]int{p.Row, c})
		}
		for _, c := range p.Cols {
			touched = append(touched, [2]int{p.Row, c})
		}
	}

	// The patched rows' new entries, grouped by target unit with rows
	// ascending (a counting sort over the patches in row order), and the
	// target units that lose an entry.
	addPtr := make([]int, nt+1)
	for _, p := range sorted {
		for _, c := range p.Cols {
			addPtr[c+1]++
		}
	}
	for c := 0; c < nt; c++ {
		addPtr[c+1] += addPtr[c]
	}
	addRow := make([]int, addPtr[nt])
	addVal := make([]float64, addPtr[nt])
	fill := append([]int(nil), addPtr[:nt]...)
	for _, p := range sorted {
		for q, c := range p.Cols {
			addRow[fill[c]], addVal[fill[c]] = p.Row, p.Vals[q]
			fill[c]++
		}
	}
	nnz := xt.NNZ() + addPtr[nt]
	loses := make([]bool, nt)
	for _, cols := range old {
		nnz -= len(cols)
		for _, c := range cols {
			loses[c] = true
		}
	}

	indptr := make([]int, nt+1)
	rowIdx := make([]int, nnz)
	val := make([]float64, nnz)
	pos := 0
	for c := 0; c < nt; c++ {
		indptr[c] = pos
		lo, hi := xt.IndPtr[c], xt.IndPtr[c+1]
		a, aEnd := addPtr[c], addPtr[c+1]
		if a == aEnd && !loses[c] {
			pos += copy(rowIdx[pos:], xt.ColIdx[lo:hi])
			copy(val[pos-(hi-lo):], xt.Val[lo:hi])
			continue
		}
		for j := lo; j < hi; j++ {
			i := xt.ColIdx[j]
			if patchOf(i) >= 0 {
				continue
			}
			for ; a < aEnd && addRow[a] < i; a++ {
				rowIdx[pos], val[pos] = addRow[a], addVal[a]
				pos++
			}
			rowIdx[pos], val[pos] = i, xt.Val[j]
			pos++
		}
		for ; a < aEnd; a++ {
			rowIdx[pos], val[pos] = addRow[a], addVal[a]
			pos++
		}
	}
	indptr[nt] = pos
	return &sparse.CSR{Rows: nt, Cols: xt.Cols, IndPtr: indptr, ColIdx: rowIdx, Val: val}, touched
}

// valueOnlyPlaces returns, per patch, the positions in xt of the
// entries a value-only patch set overwrites, or nil when some patch
// changes its row's target set.
func valueOnlyPlaces(xt *sparse.CSR, rowNNZ []int32, patches []RowPatch) [][]int {
	at := make([][]int, len(patches))
	for t, p := range patches {
		if int(rowNNZ[p.Row]) != len(p.Cols) {
			return nil
		}
		at[t] = make([]int, len(p.Cols))
		for q, c := range p.Cols {
			lo, hi := xt.IndPtr[c], xt.IndPtr[c+1]
			k := lo + sort.SearchInts(xt.ColIdx[lo:hi], p.Row)
			if k == hi || xt.ColIdx[k] != p.Row {
				return nil
			}
			at[t][q] = k
		}
	}
	return at
}

// keptMax returns maxOf(next), where next differs from prev only at
// rows and mx is maxOf(prev): the larger of mx and the changed
// entries, with a rescan of next only when a row that held mx changed
// and none reached it again. The vectors are non-negative, so the
// result also equals linalg.MaxAbs(next).
func keptMax(mx float64, prev, next []float64, rows []int) float64 {
	var hi float64
	lost := false
	for _, i := range rows {
		if next[i] > hi {
			hi = next[i]
		}
		if prev[i] == mx {
			lost = true
		}
	}
	switch {
	case hi >= mx:
		return hi
	case !lost:
		return mx
	}
	return maxOf(next)
}

// maxOf mirrors maxNormalise's normaliser: the maximum entry (the
// vectors are validated non-negative, so no abs is taken).
func maxOf(v []float64) float64 {
	var mx float64
	for _, x := range v {
		if x > mx {
			mx = x
		}
	}
	return mx
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
