package core

import (
	"fmt"
	"io"

	"geoalign/internal/linalg"
	"geoalign/internal/snapshot"
	"geoalign/internal/sparse"
)

// This file maps an Engine onto the internal/snapshot container. The
// container knows only typed sections; the engine schema lives here.
//
// A snapshot stores every attribute-independent precompute NewEngine
// derives from raw crosswalks — the target-major reference crosswalks,
// the Eq. 15 design matrix, its Gram matrix and ‖A‖∞, and the Eq. 14
// row-sum normalisers — so
// loading rebuilds the Engine by wiring views over the mapped file
// instead of re-running the build pipeline. Options are deliberately
// NOT stored: they are caller policy, supplied again at load time.
//
// The per-reference sections live under xwSectionBase. Snapshots
// written by earlier versions keep them under refSectionBase with each
// crosswalk stored row-major; the loader transposes those once at open
// (the engine then owns the transposed copy), and they align
// bit-identically. Because the new layout moved every per-reference
// section, an earlier binary refuses a new file with a missing-section
// error instead of misreading it. Earlier files may also carry a union
// sparsity pattern, a zero-support mask, per-reference slot maps, a
// Lipschitz constant and a Cholesky factor of G. The loader ignores
// them; their section ids and flag bits stay reserved.

// Fixed section ids. Per-reference sections live at
// xwSectionBase + ref*refSectionStride + field (refSectionBase in
// row-major files written by earlier versions).
const (
	secMeta       = 1  // ints: ns, nt, k, flags
	secScalars    = 2  // f64: ‖A‖∞ (legacy files append a Lipschitz constant)
	secWeightMat  = 5  // f64, ns×k row-major: Eq. 15 design matrix
	secGram       = 6  // f64, k×k row-major: AᵀA
	secRefNames   = 9  // strings, k
	secSourceKeys = 10 // strings, optional: source unit keys
	secTargetKeys = 11 // strings, optional: target unit keys

	xwSectionBase    = 1 << 24 // above every refSectionBase id for maxSnapshotRefs references
	refSectionBase   = 1000    // row-major files of earlier versions
	refSectionStride = 8
	refDMIndPtr      = 0 // ints: nt+1 target pointers (row-major files: ns+1 row pointers)
	refDMColIdx      = 1 // ints, nnz: source rows (row-major files: target columns)
	refDMVal         = 2 // f64, nnz
	refSource        = 3 // f64, ns; present only when the reference had one
	refRowSums       = 4 // f64, ns: DM row sums (Eq. 14 denominator basis)

	// Reserved: written by earlier versions, ignored on load.
	secLegacyPatIndPtr = 3 // ints: union pattern row pointers
	secLegacyPatColIdx = 4 // ints: union pattern column indices
	secLegacyCholesky  = 7 // f64, k×k: Cholesky factor of G, present iff flagLegacyCholeskyPD
	secLegacyZeroRow   = 8 // bytes: zero-support mask
	refLegacySlots     = 5 // ints: entry positions in the union pattern
)

// Meta flags. Every bit is reserved: written by earlier versions,
// ignored on load, and never written now.
const (
	flagLegacyLipschitz    = 1 << 0 // a Lipschitz constant follows ‖A‖∞ in secScalars
	flagLegacyCholeskyPD   = 1 << 1 // Cholesky factor of G stored in secLegacyCholesky
	flagLegacyCholeskyFail = 1 << 2 // Cholesky attempted, G not positive definite
)

// Plausibility bounds on the meta dimensions, checked before any
// arithmetic on them so corrupt counts cannot overflow size products.
const (
	maxSnapshotUnits = 1 << 40
	maxSnapshotRefs  = 1 << 20
)

// SnapshotMeta carries the unit keys alongside an engine snapshot.
// Engines address units by index; the keys restore the mapping to
// external identifiers (FIPS codes, tract GEOIDs). Either slice may be
// empty.
type SnapshotMeta struct {
	SourceKeys []string
	TargetKeys []string
}

func corruptf(format string, args ...any) error {
	return badf(snapshot.ErrCorrupt, format, args...)
}

func badf(sentinel error, format string, args ...any) error {
	return fmt.Errorf("%w: %s", sentinel, fmt.Sprintf(format, args...))
}

// WriteSnapshot serialises the engine's full precompute to w. meta may
// be nil when unit keys are not tracked. The file holds everything a
// solve reads, so a loaded engine has no lazy state left to compute.
func (e *Engine) WriteSnapshot(w io.Writer, meta *SnapshotMeta) (int64, error) {
	return e.snapshotWriter(meta).WriteTo(w)
}

// WriteSnapshotFile writes the snapshot atomically to path
// (temp file + rename, fsynced).
func (e *Engine) WriteSnapshotFile(path string, meta *SnapshotMeta) error {
	return snapshot.WriteFile(path, e.snapshotWriter(meta))
}

// SnapshotSize returns the exact byte size WriteSnapshot would produce.
func (e *Engine) SnapshotSize(meta *SnapshotMeta) int64 {
	return e.snapshotWriter(meta).Layout()
}

func (e *Engine) snapshotWriter(meta *SnapshotMeta) *snapshot.Writer {
	k := len(e.refs)
	w := snapshot.NewWriter()
	w.Ints(secMeta, []int{e.ns, e.nt, k, 0})
	w.F64(secScalars, []float64{e.gram.AInf})
	w.F64(secWeightMat, e.gram.Design())
	w.F64(secGram, e.gram.Gram().Data)
	names := make([]string, k)
	for i, r := range e.refs {
		names[i] = r.Name
	}
	w.Strings(secRefNames, names)
	if meta != nil && len(meta.SourceKeys) > 0 {
		w.Strings(secSourceKeys, meta.SourceKeys)
	}
	if meta != nil && len(meta.TargetKeys) > 0 {
		w.Strings(secTargetKeys, meta.TargetKeys)
	}
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
	return w
}

// LoadSnapshot maps the snapshot at path and rebuilds the engine
// around it. opts plays the same role as in NewEngine. The returned
// engine owns the
// mapping: its hot arrays alias the file, so Close must not be called
// before the last Align completes. Results are bit-identical to the
// engine the snapshot was written from.
func LoadSnapshot(path string, opts Options) (*Engine, *SnapshotMeta, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, nil, err
	}
	e, meta, err := engineFromSnapshot(f, opts)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, meta, nil
}

// LoadSnapshotBytes rebuilds an engine from an in-memory snapshot.
func LoadSnapshotBytes(data []byte, opts Options) (*Engine, *SnapshotMeta, error) {
	f, err := snapshot.OpenBytes(data)
	if err != nil {
		return nil, nil, err
	}
	e, meta, err := engineFromSnapshot(f, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return e, meta, nil
}

func engineFromSnapshot(f *snapshot.File, opts Options) (*Engine, *SnapshotMeta, error) {
	m, err := f.Ints(secMeta)
	if err != nil {
		return nil, nil, err
	}
	if len(m) < 4 {
		return nil, nil, corruptf("meta section has %d fields, want 4", len(m))
	}
	ns, nt, k := m[0], m[1], m[2]
	if ns < 0 || nt < 0 || ns > maxSnapshotUnits || nt > maxSnapshotUnits {
		return nil, nil, corruptf("implausible unit counts %d x %d", ns, nt)
	}
	if k < 1 || k > maxSnapshotRefs {
		return nil, nil, corruptf("implausible reference count %d", k)
	}

	scalars, err := f.F64(secScalars)
	if err != nil {
		return nil, nil, err
	}
	if len(scalars) < 1 {
		return nil, nil, corruptf("scalar section is empty, want ‖A‖∞")
	}

	wmData, err := f.F64(secWeightMat)
	if err != nil {
		return nil, nil, err
	}
	if int64(len(wmData)) != int64(ns)*int64(k) {
		return nil, nil, corruptf("design matrix has %d values, want %d x %d", len(wmData), ns, k)
	}
	weightMat := &linalg.Matrix{Rows: ns, Cols: k, Data: wmData}

	gData, err := f.F64(secGram)
	if err != nil {
		return nil, nil, err
	}
	if int64(len(gData)) != int64(k)*int64(k) {
		return nil, nil, corruptf("Gram matrix has %d values, want %d x %d", len(gData), k, k)
	}
	gram := linalg.RestoreGramSystem(weightMat, &linalg.Matrix{Rows: k, Cols: k, Data: gData}, scalars[0])

	names, err := f.Strings(secRefNames)
	if err != nil {
		return nil, nil, err
	}
	if len(names) != k {
		return nil, nil, corruptf("%d reference names for %d references", len(names), k)
	}

	e := &Engine{
		ns:   ns,
		nt:   nt,
		refs: make([]Reference, k),
		opts: opts,
		// normSrc stays nil: the design matrix columns hold the same
		// bits, and only the source-override path reads it (extracted
		// lazily by normSrcCols).
		gram:    gram,
		rowSums: make([][]float64, k),
		maxRow:  make([]float64, k),
		srcMax:  make([]float64, k),
		snap:    f,
	}
	// The layout is per file: target-major sections, or the row-major
	// ones of earlier versions, transposed here.
	base0, rowMajor := uint32(xwSectionBase), !f.Has(xwSectionBase+refDMIndPtr)
	if rowMajor {
		base0 = refSectionBase
	}
	for i := 0; i < k; i++ {
		base := base0 + uint32(i*refSectionStride)
		indptr, err := f.Ints(base + refDMIndPtr)
		if err != nil {
			return nil, nil, err
		}
		idx, err := f.Ints(base + refDMColIdx)
		if err != nil {
			return nil, nil, err
		}
		val, err := f.F64(base + refDMVal)
		if err != nil {
			return nil, nil, err
		}
		what := fmt.Sprintf("reference %d (%s)", i, names[i])
		r := Reference{Name: names[i]}
		if rowMajor {
			if err := checkCSRShape(snapshot.ErrCorrupt, what, indptr, idx, val, ns, nt); err != nil {
				return nil, nil, err
			}
			r.DM, _, err = targetMajor(snapshot.ErrCorrupt, what, &sparse.CSR{Rows: ns, Cols: nt, IndPtr: indptr, ColIdx: idx, Val: val})
			if err != nil {
				return nil, nil, err
			}
		} else {
			if err := checkCSRShape(snapshot.ErrCorrupt, what, indptr, idx, val, nt, ns); err != nil {
				return nil, nil, err
			}
			r.DM = &sparse.CSR{Rows: nt, Cols: ns, IndPtr: indptr, ColIdx: idx, Val: val}
		}
		if f.Has(base + refSource) {
			src, err := f.F64(base + refSource)
			if err != nil {
				return nil, nil, err
			}
			if len(src) != ns {
				return nil, nil, corruptf("%s source vector has %d entries, want %d", what, len(src), ns)
			}
			r.Source = src
			e.srcMax[i] = maxOf(src)
		}
		e.refs[i] = r

		sums, err := f.F64(base + refRowSums)
		if err != nil {
			return nil, nil, err
		}
		if len(sums) != ns {
			return nil, nil, corruptf("%s row sums have %d entries, want %d", what, len(sums), ns)
		}
		e.rowSums[i] = sums
		e.maxRow[i] = linalg.MaxAbs(sums)
	}
	e.initPools()

	var meta SnapshotMeta
	if f.Has(secSourceKeys) {
		if meta.SourceKeys, err = f.Strings(secSourceKeys); err != nil {
			return nil, nil, err
		}
	}
	if f.Has(secTargetKeys) {
		if meta.TargetKeys, err = f.Strings(secTargetKeys); err != nil {
			return nil, nil, err
		}
	}
	return e, &meta, nil
}

// checkCSRShape validates the structural invariants of a rows×cols
// CSR matrix before the engine's unchecked hot loops may index into
// it: correct pointer array length, monotone row pointers covering
// exactly the stored entries, one value per entry, and strictly
// increasing in-range column indices per row (the documented CSR
// invariant). It checks loaded crosswalks (target-major ones as nt×ns,
// so every stored source row indexes the per-row scales safely) and
// caller-built references alike; failures wrap bad.
func checkCSRShape(bad error, what string, indptr, colIdx []int, val []float64, rows, cols int) error {
	if len(indptr) != rows+1 {
		return badf(bad, "%s has %d row pointers, want %d", what, len(indptr), rows+1)
	}
	if indptr[0] != 0 {
		return badf(bad, "%s row pointers start at %d, want 0", what, indptr[0])
	}
	if indptr[rows] != len(colIdx) {
		return badf(bad, "%s row pointers end at %d, but %d entries are stored", what, indptr[rows], len(colIdx))
	}
	if len(val) != len(colIdx) {
		return badf(bad, "%s has %d values for %d column indices", what, len(val), len(colIdx))
	}
	n := len(colIdx)
	for i := 0; i < rows; i++ {
		lo, hi := indptr[i], indptr[i+1]
		// hi > n guards against an interior overshoot compensated by a
		// later decrease: the total matching len(colIdx) does not make
		// every prefix in range, and the entry loop must never index
		// past the section.
		if lo > hi || hi > n {
			return badf(bad, "%s row %d pointers decrease or overshoot (%d, %d of %d)", what, i, lo, hi, n)
		}
		prev := -1
		for p := lo; p < hi; p++ {
			c := colIdx[p]
			if c <= prev || c >= cols {
				return badf(bad, "%s row %d column indices are not strictly increasing in [0,%d)", what, i, cols)
			}
			prev = c
		}
	}
	return nil
}
