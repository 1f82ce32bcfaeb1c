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
//     share the reference's row pointers and column indices and
//     replace only its value array;
//   - structural patches (columns added or removed, rows deleted)
//     rebuild the patched reference's arrays with unaffected row spans
//     block-copied, and adjust a counted PatternNNZ by re-counting only
//     the affected rows;
//   - a revision that moves a design column's max-normaliser rescales
//     the whole column, so that column's Gram row/column is recomputed
//     by exact dot products and the Cholesky factor refactorised —
//     the row-wise rank-one path applies only while column maxes hold
//     (compared exactly: rebuild equivalence is bit-level there).

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
	structRows := make(map[int]bool)
	ne.rowSums = make([][]float64, k)
	ne.maxRow = append([]float64(nil), e.maxRow...)
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
		dm, structural := spliceCSR(e.refs[r].DM, patches, deep)
		ne.refs[r].DM = dm
		if structural {
			for _, p := range patches {
				structRows[p.Row] = true
			}
		}
		if deep && e.refs[r].Source != nil {
			ne.refs[r].Source = append([]float64(nil), e.refs[r].Source...)
		}
		sums := append([]float64(nil), e.rowSums[r]...)
		for _, p := range patches {
			sums[p.Row] = linalg.Sum(p.Vals)
		}
		ne.rowSums[r] = sums
		ne.maxRow[r] = linalg.MaxAbs(sums)
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
		oldRaw := e.rowSums[r]
		if hadSource {
			oldRaw = e.refs[r].Source
		}
		var newRaw []float64
		changed := make(map[int]bool)
		if len(src) > 0 {
			if hadSource {
				newRaw = append([]float64(nil), e.refs[r].Source...)
			} else {
				// Materialise the effective source (the patched row sums)
				// as an explicit vector before overriding entries.
				newRaw = append([]float64(nil), ne.rowSums[r]...)
				if rowPatched {
					for _, p := range rowsByRef[r] {
						changed[p.Row] = true
					}
				}
			}
			for _, p := range src {
				newRaw[p.Row] = p.Value
				changed[p.Row] = true
			}
			ne.refs[r].Source = newRaw
		} else {
			// nil-Source reference with crosswalk patches: the design
			// column follows the patched row sums.
			newRaw = ne.rowSums[r]
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
			oldMax: maxOf(oldRaw),
			newMax: maxOf(newRaw),
		})
	}

	// 3. Maintain the design matrix and Gram system.
	e.applyColumnPlans(ne, plans, deep)

	// 4. Hand on the union-pattern count if the parent has taken it (0
	// means not yet counted): only rows whose column sets changed can
	// move it.
	nnz := e.patNNZ.Load()
	if nnz > 0 && len(structRows) > 0 {
		mark := make([]int, e.nt)
		stamp := 0
		for i := range structRows {
			stamp += 2
			nnz += int64(unionRowNNZ(ne.refs, i, mark, stamp) - unionRowNNZ(e.refs, i, mark, stamp-1))
		}
	}
	ne.patNNZ.Store(nnz)

	ne.initPools()
	return ne, nil
}

// applyColumnPlans executes the design-matrix maintenance plans against
// a mutable clone of the Gram system (or shares the parent's when no
// column changed). Plans whose column max held use per-row rank-one
// updates; plans whose max moved — or an oversized row batch — rewrite
// the whole column and recompute its Gram row/column exactly.
func (e *Engine) applyColumnPlans(ne *Engine, plans []colPlan, deep bool) {
	if len(plans) == 0 {
		if !deep {
			ne.weightMat = e.weightMat
			ne.gram = e.gram
			return
		}
		wm := e.weightMat.Clone()
		ne.weightMat, ne.gram = wm, e.gram.MutableClone(wm)
		return
	}

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
	if len(rowPlans) == 0 && len(bulkPlans) == 0 {
		// Only max-zero no-op plans: design matrix is element-wise
		// unchanged; share (or clone, when deep) like the no-plan case.
		e.applyColumnPlans(ne, nil, deep)
		return
	}

	wm := e.weightMat.Clone()
	gs := e.gram.MutableClone(wm)

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
		newRow := make([]float64, wm.Cols)
		for _, i := range rows {
			copy(newRow, wm.Row(i))
			for _, pl := range edits[i] {
				newRow[pl.ref] = pl.raw[i] / pl.newMax
			}
			gs.UpdateRow(i, newRow)
		}
	}
	if len(bulkPlans) > 0 {
		cols := make([]int, 0, len(bulkPlans))
		for _, pl := range bulkPlans {
			for i := 0; i < e.ns; i++ {
				v := 0.0
				if pl.newMax > 0 {
					v = pl.raw[i] / pl.newMax
				}
				wm.Data[i*wm.Cols+pl.ref] = v
			}
			cols = append(cols, pl.ref)
		}
		gs.RecomputeColumns(cols)
	}
	gs.RefreshInfNorm()
	ne.weightMat, ne.gram = wm, gs
}

// spliceCSR applies one reference's row patches, returning the patched
// crosswalk and whether any patch was structural (changed a row's
// column set). Value-only patch sets share IndPtr/ColIdx with the old
// matrix (copied when deep) and replace only the value array;
// structural sets rebuild all three arrays with unaffected row spans
// block-copied.
func spliceCSR(old *sparse.CSR, patches []RowPatch, deep bool) (*sparse.CSR, bool) {
	structural := false
	for _, p := range patches {
		cols, _ := old.Row(p.Row)
		if !intsEqual(cols, p.Cols) {
			structural = true
			break
		}
	}
	if !structural {
		val := append([]float64(nil), old.Val...)
		for _, p := range patches {
			copy(val[old.IndPtr[p.Row]:], p.Vals)
		}
		indptr, colIdx := old.IndPtr, old.ColIdx
		if deep {
			indptr = append([]int(nil), indptr...)
			colIdx = append([]int(nil), colIdx...)
		}
		return &sparse.CSR{Rows: old.Rows, Cols: old.Cols, IndPtr: indptr, ColIdx: colIdx, Val: val}, false
	}

	sorted := append([]RowPatch(nil), patches...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Row < sorted[j].Row })
	nnz := old.NNZ()
	for _, p := range sorted {
		nnz += len(p.Cols) - (old.IndPtr[p.Row+1] - old.IndPtr[p.Row])
	}
	indptr := make([]int, old.Rows+1)
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	pos, pi := 0, 0
	for i := 0; i < old.Rows; i++ {
		indptr[i] = pos
		if pi < len(sorted) && sorted[pi].Row == i {
			p := sorted[pi]
			pi++
			copy(colIdx[pos:], p.Cols)
			copy(val[pos:], p.Vals)
			pos += len(p.Cols)
			continue
		}
		lo, hi := old.IndPtr[i], old.IndPtr[i+1]
		copy(colIdx[pos:], old.ColIdx[lo:hi])
		copy(val[pos:], old.Val[lo:hi])
		pos += hi - lo
	}
	indptr[old.Rows] = pos
	return &sparse.CSR{Rows: old.Rows, Cols: old.Cols, IndPtr: indptr, ColIdx: colIdx, Val: val}, true
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
