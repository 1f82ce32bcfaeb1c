// Package sparse implements the sparse matrix representation used for
// GeoAlign disaggregation matrices. A disaggregation matrix DM_x has one
// row per source unit and one column per target unit; its [i,j] entry is
// the aggregate of attribute x in the intersection of source unit i and
// target unit j. Because a source unit overlaps only a handful of target
// units, these matrices are extremely sparse — the paper (§4.3) stores
// them as SciPy sparse matrices and observes runtime proportional to the
// number of non-zeros. We provide a COO builder and an immutable CSR
// form with the operations GeoAlign needs: row sums (source aggregates),
// column sums (target aggregates / re-aggregation), weighted linear
// combinations of several matrices, and row scaling (disaggregation).
package sparse

import (
	"fmt"
	"sort"
)

// COO is an append-only coordinate-format builder. Duplicate (row,col)
// entries are summed when converting to CSR.
type COO struct {
	rows, cols int
	r, c       []int
	v          []float64
}

// NewCOO returns an empty COO builder for a rows×cols matrix.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// NewCOOWithCapacity returns an empty COO builder with room for nnz
// entries before the first reallocation. Assembly paths that know the
// entry count up front (the tiled crosswalk merge) use it to avoid
// growth copies of multi-million-entry triplet slices.
func NewCOOWithCapacity(rows, cols, nnz int) *COO {
	m := NewCOO(rows, cols)
	if nnz > 0 {
		m.r = make([]int, 0, nnz)
		m.c = make([]int, 0, nnz)
		m.v = make([]float64, 0, nnz)
	}
	return m
}

// Add records v at (row, col). Explicit zeros are preserved through CSR
// conversion; callers who want them removed use CSR.Prune.
func (m *COO) Add(row, col int, v float64) {
	if row < 0 || row >= m.rows || col < 0 || col >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of bounds for %dx%d", row, col, m.rows, m.cols))
	}
	m.r = append(m.r, row)
	m.c = append(m.c, col)
	m.v = append(m.v, v)
}

// NNZ returns the number of recorded entries (before deduplication).
func (m *COO) NNZ() int { return len(m.v) }

// ToCSR converts the builder to an immutable CSR matrix, summing
// duplicates.
func (m *COO) ToCSR() *CSR {
	return FromTriplets(m.rows, m.cols, func(emit func(row, col int, v float64)) {
		for k, r := range m.r {
			emit(r, m.c[k], m.v[k])
		}
	})
}

// FromTriplets builds the CSR of a triplet sequence without holding
// the triplets itself: each is called twice and must emit the same
// (row, col, v) sequence both times — once to count the entries of
// every row, once to place them. Each row is then sorted stably by
// column, so duplicates are summed in emission order.
func FromTriplets(rows, cols int, each func(emit func(row, col int, v float64))) *CSR {
	indptr := make([]int, rows+1)
	each(func(row, col int, _ float64) {
		if row < 0 || row >= rows || col < 0 || col >= cols {
			panic(fmt.Sprintf("sparse: index (%d,%d) out of bounds for %dx%d", row, col, rows, cols))
		}
		indptr[row+1]++
	})
	for i := 0; i < rows; i++ {
		indptr[i+1] += indptr[i]
	}
	nnz := indptr[rows]
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, rows)
	copy(next, indptr[:rows])
	each(func(row, col int, v float64) {
		p := next[row]
		colIdx[p] = col
		val[p] = v
		next[row]++
	})
	csr := &CSR{Rows: rows, Cols: cols, IndPtr: indptr, ColIdx: colIdx, Val: val}
	csr.sortRowsAndMerge()
	return csr
}

// CSR is a compressed sparse row matrix. After construction the column
// indices within each row are strictly increasing and duplicates have
// been merged.
type CSR struct {
	Rows, Cols int
	IndPtr     []int // len Rows+1
	ColIdx     []int // len NNZ
	Val        []float64
}

// NewCSRIdentityPattern returns a Rows×Cols CSR with no entries.
func NewEmptyCSR(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, IndPtr: make([]int, rows+1)}
}

func (m *CSR) sortRowsAndMerge() {
	outPtr := make([]int, m.Rows+1)
	outCol := m.ColIdx[:0]
	outVal := m.Val[:0]
	// Sort each row in place, then merge duplicates compacting forward.
	write := 0
	for i := 0; i < m.Rows; i++ {
		start, end := m.IndPtr[i], m.IndPtr[i+1]
		sortRow(m.ColIdx[start:end], m.Val[start:end])
		outPtr[i] = write
		for k := start; k < end; k++ {
			if write > outPtr[i] && outCol[write-1] == m.ColIdx[k] {
				outVal[write-1] += m.Val[k]
				continue
			}
			// Compaction writes at or before k, so in-place is safe.
			outCol = outCol[:write+1]
			outVal = outVal[:write+1]
			outCol[write] = m.ColIdx[k]
			outVal[write] = m.Val[k]
			write++
		}
	}
	outPtr[m.Rows] = write
	m.IndPtr = outPtr
	m.ColIdx = outCol[:write]
	m.Val = outVal[:write]
}

// insertionSortMax is the row length up to which sortRow uses the
// stable insertion sort. Overlap-matrix rows — one source unit's
// handful of target intersections — essentially always fit.
const insertionSortMax = 48

// sortRow orders a row's column indices (carrying values) in place.
// It replaces the old sort.Sort(rowSorter{...}) call, which boxed an
// interface value per row and paid indirect Less/Swap calls per
// comparison — measurable across the millions of rows a nationwide
// build converts. Short rows use a stable insertion sort; longer rows
// fall back to an in-place heapsort. Neither allocates.
//
// Stability matters for duplicate columns: ToCSR sums duplicates in
// the order the merge pass encounters them, so a stable sort keeps the
// floating-point summation order equal to the entries' appearance
// order. The heapsort path is unstable, but beyond two duplicates per
// column in a 48+ entry row the summation order was never contractual
// (two-term sums are order-independent: IEEE addition commutes).
func sortRow(col []int, val []float64) {
	if len(col) <= insertionSortMax {
		for i := 1; i < len(col); i++ {
			c, v := col[i], val[i]
			j := i - 1
			for j >= 0 && col[j] > c {
				col[j+1], val[j+1] = col[j], val[j]
				j--
			}
			col[j+1], val[j+1] = c, v
		}
		return
	}
	heapSortRow(col, val)
}

func heapSortRow(col []int, val []float64) {
	n := len(col)
	for root := n/2 - 1; root >= 0; root-- {
		siftDownRow(col, val, root, n)
	}
	for end := n - 1; end > 0; end-- {
		col[0], col[end] = col[end], col[0]
		val[0], val[end] = val[end], val[0]
		siftDownRow(col, val, 0, end)
	}
}

func siftDownRow(col []int, val []float64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && col[child+1] > col[child] {
			child++
		}
		if col[root] >= col[child] {
			return
		}
		col[root], col[child] = col[child], col[root]
		val[root], val[child] = val[child], val[root]
		root = child
	}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns the entry at (row, col); absent entries are 0. O(log nnz(row)).
func (m *CSR) At(row, col int) float64 {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of bounds for %dx%d", row, col, m.Rows, m.Cols))
	}
	start, end := m.IndPtr[row], m.IndPtr[row+1]
	cols := m.ColIdx[start:end]
	k := sort.SearchInts(cols, col)
	if k < len(cols) && cols[k] == col {
		return m.Val[start+k]
	}
	return 0
}

// Row returns the column indices and values of row i as views into the
// matrix storage. Callers must not mutate them.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	start, end := m.IndPtr[i], m.IndPtr[i+1]
	return m.ColIdx[start:end], m.Val[start:end]
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		Rows: m.Rows, Cols: m.Cols,
		IndPtr: append([]int(nil), m.IndPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return out
}

// RowSums returns the vector of row sums (the source-level aggregate
// vector implied by a disaggregation matrix).
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		var s float64
		for _, v := range m.Val[m.IndPtr[i]:m.IndPtr[i+1]] {
			s += v
		}
		out[i] = s
	}
	return out
}

// ColSums returns the vector of column sums (the target-level aggregate
// vector implied by a disaggregation matrix; this is GeoAlign's
// re-aggregation step, Eq. 17). Each column is summed in row order.
func (m *CSR) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.IndPtr[i]; k < m.IndPtr[i+1]; k++ {
			out[m.ColIdx[k]] += m.Val[k]
		}
	}
	return out
}

// ScaleRows multiplies row i by s[i] in place and returns m.
func (m *CSR) ScaleRows(s []float64) *CSR {
	if len(s) != m.Rows {
		panic(fmt.Sprintf("sparse: ScaleRows length %d != rows %d", len(s), m.Rows))
	}
	for i, si := range s {
		for k := m.IndPtr[i]; k < m.IndPtr[i+1]; k++ {
			m.Val[k] *= si
		}
	}
	return m
}

// Scale multiplies every entry by alpha in place and returns m.
func (m *CSR) Scale(alpha float64) *CSR {
	for k := range m.Val {
		m.Val[k] *= alpha
	}
	return m
}

// Prune drops stored entries with |v| <= eps, returning a new matrix.
func (m *CSR) Prune(eps float64) *CSR {
	out := &CSR{Rows: m.Rows, Cols: m.Cols, IndPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		out.IndPtr[i] = len(out.Val)
		for k := m.IndPtr[i]; k < m.IndPtr[i+1]; k++ {
			if v := m.Val[k]; v > eps || v < -eps {
				out.ColIdx = append(out.ColIdx, m.ColIdx[k])
				out.Val = append(out.Val, v)
			}
		}
	}
	out.IndPtr[m.Rows] = len(out.Val)
	return out
}

// WeightedSum computes Σ_k w[k]·mats[k] over CSR matrices with identical
// shapes. This is the core of GeoAlign's disaggregation step: the
// numerator of Eq. (14) is the weighted sum of the reference
// disaggregation matrices.
func WeightedSum(mats []*CSR, w []float64) (*CSR, error) {
	if len(mats) == 0 {
		return nil, fmt.Errorf("sparse: WeightedSum of no matrices")
	}
	if len(mats) != len(w) {
		return nil, fmt.Errorf("sparse: WeightedSum has %d matrices but %d weights", len(mats), len(w))
	}
	rows, cols := mats[0].Rows, mats[0].Cols
	for i, m := range mats {
		if m.Rows != rows || m.Cols != cols {
			return nil, fmt.Errorf("sparse: WeightedSum shape mismatch: matrix %d is %dx%d, want %dx%d",
				i, m.Rows, m.Cols, rows, cols)
		}
	}
	out := &CSR{Rows: rows, Cols: cols, IndPtr: make([]int, rows+1)}
	// Merge row-by-row with a k-way walk. Column counts per row are tiny
	// (a source unit intersects few target units), so a simple scatter
	// into a dense-ish map per row would also work; we use a positional
	// merge keyed on a scratch array to stay allocation-light.
	scratchVal := make([]float64, cols)
	scratchSeen := make([]bool, cols)
	var touched []int
	for i := 0; i < rows; i++ {
		out.IndPtr[i] = len(out.Val)
		touched = touched[:0]
		for k, m := range mats {
			wk := w[k]
			if wk == 0 {
				continue
			}
			colsK, valsK := m.Row(i)
			for t, c := range colsK {
				if !scratchSeen[c] {
					scratchSeen[c] = true
					scratchVal[c] = 0
					touched = append(touched, c)
				}
				scratchVal[c] += wk * valsK[t]
			}
		}
		sort.Ints(touched)
		for _, c := range touched {
			out.ColIdx = append(out.ColIdx, c)
			out.Val = append(out.Val, scratchVal[c])
			scratchSeen[c] = false
		}
	}
	out.IndPtr[rows] = len(out.Val)
	return out, nil
}

// ToDense expands the matrix to a row-major dense slice-of-slices,
// intended for tests and small examples only.
func (m *CSR) ToDense() [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = make([]float64, m.Cols)
		for k := m.IndPtr[i]; k < m.IndPtr[i+1]; k++ {
			out[i][m.ColIdx[k]] = m.Val[k]
		}
	}
	return out
}

// FromDense builds a CSR from a dense slice-of-slices, skipping zeros.
func FromDense(d [][]float64) (*CSR, error) {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	coo := NewCOO(rows, cols)
	for i, row := range d {
		if len(row) != cols {
			return nil, fmt.Errorf("sparse: ragged dense input at row %d", i)
		}
		for j, v := range row {
			if v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR(), nil
}

// Equal reports whether two matrices agree entry-wise within tol,
// comparing the full (implicit-zero) contents.
func Equal(a, b *CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ca, va := a.Row(i)
		cb, vb := b.Row(i)
		pa, pb := 0, 0
		for pa < len(ca) || pb < len(cb) {
			switch {
			case pb >= len(cb) || (pa < len(ca) && ca[pa] < cb[pb]):
				if va[pa] > tol || va[pa] < -tol {
					return false
				}
				pa++
			case pa >= len(ca) || cb[pb] < ca[pa]:
				if vb[pb] > tol || vb[pb] < -tol {
					return false
				}
				pb++
			default:
				if d := va[pa] - vb[pb]; d > tol || d < -tol {
					return false
				}
				pa++
				pb++
			}
		}
	}
	return true
}
