package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func denseEq(a, b [][]float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

func randomCOO(rng *rand.Rand, rows, cols, nnz int) *COO {
	coo := NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		coo.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	return coo
}

func TestCOOToCSRBasic(t *testing.T) {
	coo := NewCOO(2, 3)
	coo.Add(0, 2, 5)
	coo.Add(1, 0, 1)
	coo.Add(0, 1, 2)
	m := coo.ToCSR()
	want := [][]float64{{0, 2, 5}, {1, 0, 0}}
	if !denseEq(m.ToDense(), want, 0) {
		t.Errorf("ToDense = %v, want %v", m.ToDense(), want)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO(1, 2)
	coo.Add(0, 1, 1)
	coo.Add(0, 1, 2)
	coo.Add(0, 1, 3)
	m := coo.ToCSR()
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 after merging", m.NNZ())
	}
	if got := m.At(0, 1); got != 6 {
		t.Errorf("At(0,1) = %v, want 6", got)
	}
}

func TestCSRColumnsSortedWithinRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomCOO(rng, 10, 10, 80).ToCSR()
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				t.Fatalf("row %d columns not strictly increasing: %v", i, cols)
			}
		}
	}
}

func TestCOOBoundsPanic(t *testing.T) {
	coo := NewCOO(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds Add did not panic")
		}
	}()
	coo.Add(2, 0, 1)
}

func TestAtAbsentIsZero(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(1, 1, 4)
	m := coo.ToCSR()
	if m.At(0, 0) != 0 || m.At(2, 2) != 0 {
		t.Error("absent entries not zero")
	}
	if m.At(1, 1) != 4 {
		t.Errorf("At(1,1) = %v, want 4", m.At(1, 1))
	}
}

func TestRowColSums(t *testing.T) {
	m, err := FromDense([][]float64{
		{1, 0, 2},
		{0, 3, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := m.RowSums()
	if rs[0] != 3 || rs[1] != 3 {
		t.Errorf("RowSums = %v, want [3 3]", rs)
	}
	cs := m.ColSums()
	if cs[0] != 1 || cs[1] != 3 || cs[2] != 2 {
		t.Errorf("ColSums = %v, want [1 3 2]", cs)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomCOO(rng, 6, 8, 25).ToCSR()
	tt := m.Transpose().Transpose()
	if !Equal(m, tt, 0) {
		t.Error("transpose twice != original")
	}
}

func TestScaleRows(t *testing.T) {
	m, _ := FromDense([][]float64{{1, 2}, {3, 4}})
	m.ScaleRows([]float64{2, 0.5})
	want := [][]float64{{2, 4}, {1.5, 2}}
	if !denseEq(m.ToDense(), want, 1e-12) {
		t.Errorf("ScaleRows = %v, want %v", m.ToDense(), want)
	}
}

func TestScale(t *testing.T) {
	m, _ := FromDense([][]float64{{1, -2}})
	m.Scale(-3)
	want := [][]float64{{-3, 6}}
	if !denseEq(m.ToDense(), want, 0) {
		t.Errorf("Scale = %v, want %v", m.ToDense(), want)
	}
}

func TestPrune(t *testing.T) {
	m, _ := FromDense([][]float64{{1e-12, 5}, {0, -1e-12}})
	p := m.Prune(1e-9)
	if p.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", p.NNZ())
	}
	if p.At(0, 1) != 5 {
		t.Errorf("surviving entry = %v, want 5", p.At(0, 1))
	}
	if p.Rows != 2 || p.Cols != 2 {
		t.Errorf("dims changed: %dx%d", p.Rows, p.Cols)
	}
}

func TestWeightedSum(t *testing.T) {
	a, _ := FromDense([][]float64{{1, 0}, {0, 2}})
	b, _ := FromDense([][]float64{{0, 3}, {4, 0}})
	s, err := WeightedSum([]*CSR{a, b}, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0.5, 6}, {8, 1}}
	if !denseEq(s.ToDense(), want, 1e-12) {
		t.Errorf("WeightedSum = %v, want %v", s.ToDense(), want)
	}
}

func TestWeightedSumZeroWeightSkipsMatrix(t *testing.T) {
	a, _ := FromDense([][]float64{{1, 1}})
	b, _ := FromDense([][]float64{{5, 5}})
	s, err := WeightedSum([]*CSR{a, b}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(s, a, 0) {
		t.Errorf("WeightedSum with zero weight = %v", s.ToDense())
	}
}

func TestWeightedSumErrors(t *testing.T) {
	a, _ := FromDense([][]float64{{1}})
	b, _ := FromDense([][]float64{{1, 2}})
	if _, err := WeightedSum(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := WeightedSum([]*CSR{a}, []float64{1, 2}); err == nil {
		t.Error("weight count mismatch accepted")
	}
	if _, err := WeightedSum([]*CSR{a, b}, []float64{1, 1}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestEqualDifferentSparsityPatterns(t *testing.T) {
	// Same logical contents, different explicit-zero patterns.
	cooA := NewCOO(2, 2)
	cooA.Add(0, 0, 1)
	cooA.Add(0, 1, 0) // explicit zero
	a := cooA.ToCSR()
	cooB := NewCOO(2, 2)
	cooB.Add(0, 0, 1)
	b := cooB.ToCSR()
	if !Equal(a, b, 0) {
		t.Error("matrices with equal contents reported unequal")
	}
	cooC := NewCOO(2, 2)
	cooC.Add(1, 1, 2)
	if Equal(a, cooC.ToCSR(), 0) {
		t.Error("different matrices reported equal")
	}
}

func TestFromDenseRagged(t *testing.T) {
	if _, err := FromDense([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged dense input accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := FromDense([][]float64{{1, 2}})
	c := m.Clone()
	c.Scale(10)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

// Property: dense round trip preserves contents; row sums equal dense
// row sums; column sums of M equal row sums of Mᵀ.
func TestCSRPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomCOO(rng, rows, cols, rng.Intn(60)).ToCSR()
		rt, err := FromDense(m.ToDense())
		if err != nil || !Equal(m, rt, 1e-12) {
			return false
		}
		cs := m.ColSums()
		rsT := m.Transpose().RowSums()
		for i := range cs {
			if math.Abs(cs[i]-rsT[i]) > 1e-12 {
				return false
			}
		}
		rs := m.RowSums()
		for i, row := range m.ToDense() {
			var want float64
			for _, v := range row {
				want += v
			}
			if math.Abs(rs[i]-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: WeightedSum distributes over the matrix–vector product.
func TestWeightedSumLinearityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(8), 2+rng.Intn(8)
		n := 1 + rng.Intn(4)
		mats := make([]*CSR, n)
		w := make([]float64, n)
		for k := range mats {
			mats[k] = randomCOO(rng, rows, cols, rng.Intn(30)).ToCSR()
			w[k] = rng.NormFloat64()
		}
		s, err := WeightedSum(mats, w)
		if err != nil {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := denseMulVec(s.ToDense(), x)
		want := make([]float64, rows)
		for k := range mats {
			mv := denseMulVec(mats[k].ToDense(), x)
			for i := range want {
				want[i] += w[k] * mv[i]
			}
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewEmptyCSR(t *testing.T) {
	m := NewEmptyCSR(3, 4)
	if m.NNZ() != 0 || m.Rows != 3 || m.Cols != 4 {
		t.Errorf("empty CSR malformed: %+v", m)
	}
	if got := m.RowSums(); len(got) != 3 {
		t.Errorf("RowSums len = %d", len(got))
	}
}

// referenceCSR is the specification sortRowsAndMerge is pinned
// against: per row, stable-sort the entries by column (preserving
// appearance order among duplicates) and sum duplicates in that order.
// The old sort.Sort(rowSorter{...}) path and the new insertion path
// are both stable, so for rows at or under insertionSortMax the CSR
// output must match this bit for bit; the heapsort path for longer
// rows is unstable across duplicates, but with at most two entries per
// (row,col) the two-term sums commute exactly and bit-identity still
// holds.
func referenceCSR(rows, cols int, r, c []int, v []float64) *CSR {
	type trip struct {
		c   int
		v   float64
		ord int
	}
	byRow := make([][]trip, rows)
	for k := range r {
		byRow[r[k]] = append(byRow[r[k]], trip{c: c[k], v: v[k], ord: k})
	}
	out := &CSR{Rows: rows, Cols: cols, IndPtr: make([]int, rows+1)}
	for i, row := range byRow {
		sort.SliceStable(row, func(a, b int) bool { return row[a].c < row[b].c })
		for _, t := range row {
			n := len(out.ColIdx)
			if n > out.IndPtr[i] && out.ColIdx[n-1] == t.c {
				out.Val[n-1] += t.v
				continue
			}
			out.ColIdx = append(out.ColIdx, t.c)
			out.Val = append(out.Val, t.v)
		}
		out.IndPtr[i+1] = len(out.ColIdx)
	}
	return out
}

func csrBitIdentical(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.IndPtr {
		if a.IndPtr[i] != b.IndPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] {
			return false
		}
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// TestSortRowsAndMergeBitIdentical pins the replacement row sort
// (insertion + heapsort, no interface boxing) to the stable reference
// across short rows with arbitrary duplicate multiplicity and long
// heapsort-path rows with duplicate multiplicity capped at two.
func TestSortRowsAndMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	t.Run("short-rows-any-multiplicity", func(t *testing.T) {
		for trial := 0; trial < 200; trial++ {
			rows, cols := 1+rng.Intn(12), 1+rng.Intn(20)
			coo := NewCOO(rows, cols)
			var rr, cc []int
			var vv []float64
			// Keep every row at or under the insertion threshold: only the
			// stable path guarantees bit-identity at arbitrary duplicate
			// multiplicity.
			for i := 0; i < rows; i++ {
				for k := rng.Intn(insertionSortMax + 1); k > 0; k-- {
					j, v := rng.Intn(cols), rng.NormFloat64()
					coo.Add(i, j, v)
					rr, cc, vv = append(rr, i), append(cc, j), append(vv, v)
				}
			}
			got := coo.ToCSR()
			want := referenceCSR(rows, cols, rr, cc, vv)
			if !csrBitIdentical(got, want) {
				t.Fatalf("trial %d: ToCSR diverges from stable reference (%d rows, %d cols, %d nnz)",
					trial, rows, cols, len(vv))
			}
		}
	})
	t.Run("long-rows-heapsort-path", func(t *testing.T) {
		for trial := 0; trial < 50; trial++ {
			cols := insertionSortMax*4 + rng.Intn(200)
			coo := NewCOO(2, cols)
			var rr, cc []int
			var vv []float64
			// Row 0 well past the insertion threshold; duplicates appear
			// at most twice per column so summation order cannot matter.
			perm := rng.Perm(cols)
			n := insertionSortMax + 1 + rng.Intn(cols-insertionSortMax-1)
			for _, j := range perm[:n] {
				reps := 1 + rng.Intn(2)
				for rep := 0; rep < reps; rep++ {
					v := rng.NormFloat64()
					coo.Add(0, j, v)
					rr, cc, vv = append(rr, 0), append(cc, j), append(vv, v)
				}
			}
			got := coo.ToCSR()
			want := referenceCSR(2, cols, rr, cc, vv)
			if !csrBitIdentical(got, want) {
				t.Fatalf("trial %d: heapsort path diverges from reference (%d entries)", trial, len(vv))
			}
			for k := got.IndPtr[0] + 1; k < got.IndPtr[1]; k++ {
				if got.ColIdx[k] <= got.ColIdx[k-1] {
					t.Fatalf("trial %d: columns not strictly increasing after merge", trial)
				}
			}
		}
	})
}

// TestSortRowAllocationFree pins the satellite's point: neither sort
// path allocates (the old rowSorter boxed an interface per row).
func TestSortRowAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{3, insertionSortMax, insertionSortMax * 5} {
		colRef := make([]int, n)
		valRef := make([]float64, n)
		for i := range colRef {
			colRef[i], valRef[i] = rng.Intn(1<<20), rng.NormFloat64()
		}
		col := make([]int, n)
		val := make([]float64, n)
		allocs := testing.AllocsPerRun(20, func() {
			copy(col, colRef)
			copy(val, valRef)
			sortRow(col, val)
		})
		if allocs != 0 {
			t.Errorf("sortRow over %d entries: %.1f allocs/op, want 0", n, allocs)
		}
	}
}

// denseMulVec returns d·x for a dense row-major matrix.
func denseMulVec(d [][]float64, x []float64) []float64 {
	y := make([]float64, len(d))
	for i, row := range d {
		for j, v := range row {
			y[i] += v * x[j]
		}
	}
	return y
}
