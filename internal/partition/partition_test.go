package partition

import (
	"math"
	"math/rand"
	"testing"

	"geoalign/internal/geom"
	"geoalign/internal/interval"
	"geoalign/internal/ndbox"
	"geoalign/internal/voronoi"
)

func gridPolygons(t *testing.T, nx, ny int, w, h float64) []geom.Polygon {
	t.Helper()
	var out []geom.Polygon
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			out = append(out, geom.Rect(geom.BBox{
				MinX: w * float64(x) / float64(nx),
				MinY: h * float64(y) / float64(ny),
				MaxX: w * float64(x+1) / float64(nx),
				MaxY: h * float64(y+1) / float64(ny),
			}))
		}
	}
	return out
}

func TestNewPolygonSystemValidation(t *testing.T) {
	if _, err := NewPolygonSystem(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := NewPolygonSystem([]geom.Polygon{{{X: 0, Y: 0}, {X: 1, Y: 1}}}, nil); err == nil {
		t.Error("degenerate polygon accepted")
	}
	units := gridPolygons(t, 2, 2, 1, 1)
	if _, err := NewPolygonSystem(units, []string{"only-one"}); err == nil {
		t.Error("name count mismatch accepted")
	}
	s, err := NewPolygonSystem(units, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 || s.Dim() != 2 {
		t.Errorf("Len=%d Dim=%d", s.Len(), s.Dim())
	}
	if math.Abs(s.Measure(0)-0.25) > 1e-12 {
		t.Errorf("Measure(0) = %v", s.Measure(0))
	}
}

func TestPolygonLocate(t *testing.T) {
	units := gridPolygons(t, 4, 4, 1, 1)
	s, err := NewPolygonSystem(units, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := s.Locate([]float64{0.6, 0.1})
	if i < 0 || !units[i].Contains(geom.Point{X: 0.6, Y: 0.1}) {
		t.Errorf("Locate = %d", i)
	}
	if s.Locate([]float64{2, 2}) != -1 {
		t.Error("outside point located")
	}
	if s.Locate([]float64{0.5}) != -1 {
		t.Error("1-D point located in 2-D system")
	}
}

func TestPolygonMeasureDMGridVsGrid(t *testing.T) {
	// 2x1 vs 1x2 grids over the unit square: every pair overlaps by 1/4.
	src, _ := NewPolygonSystem(gridPolygons(t, 2, 1, 1, 1), nil)
	tgt, _ := NewPolygonSystem(gridPolygons(t, 1, 2, 1, 1), nil)
	dm, err := MeasureDM(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got := dm.At(i, j); math.Abs(got-0.25) > 1e-12 {
				t.Errorf("dm[%d][%d] = %v, want 0.25", i, j, got)
			}
		}
	}
}

func TestPolygonMeasureDMRowSumsAreAreas(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bounds := geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	srcSeeds := voronoi.RandomSeeds(rng, 40, bounds)
	tgtSeeds := voronoi.RandomSeeds(rng, 8, bounds)
	sd, err := voronoi.Compute(srcSeeds, bounds)
	if err != nil {
		t.Fatal(err)
	}
	td, err := voronoi.Compute(tgtSeeds, bounds)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := NewPolygonSystem(sd.Cells, nil)
	tgt, _ := NewPolygonSystem(td.Cells, nil)
	dm, err := MeasureDM(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	rows := dm.RowSums()
	for i := range rows {
		if math.Abs(rows[i]-src.Measure(i)) > 1e-6 {
			t.Errorf("row %d sums to %v, area is %v", i, rows[i], src.Measure(i))
		}
	}
	cols := dm.ColSums()
	for j := range cols {
		if math.Abs(cols[j]-tgt.Measure(j)) > 1e-6 {
			t.Errorf("col %d sums to %v, area is %v", j, cols[j], tgt.Measure(j))
		}
	}
}

func TestSetLocatorOverrides(t *testing.T) {
	s, _ := NewPolygonSystem(gridPolygons(t, 2, 2, 1, 1), nil)
	s.SetLocator(func(geom.Point) int { return 3 })
	if got := s.Locate([]float64{0.1, 0.1}); got != 3 {
		t.Errorf("custom locator ignored: %d", got)
	}
}

func TestPointDMCounts(t *testing.T) {
	src, _ := NewPolygonSystem(gridPolygons(t, 2, 1, 1, 1), nil) // left/right halves
	tgt, _ := NewPolygonSystem(gridPolygons(t, 1, 2, 1, 1), nil) // bottom/top halves
	pts := [][]float64{
		{0.25, 0.25}, // left-bottom
		{0.30, 0.20}, // left-bottom
		{0.75, 0.25}, // right-bottom
		{0.25, 0.75}, // left-top
		{5, 5},       // outside
	}
	dm, dropped, err := PointDM(src, tgt, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %v, want 1", dropped)
	}
	if dm.At(0, 0) != 2 || dm.At(1, 0) != 1 || dm.At(0, 1) != 1 || dm.At(1, 1) != 0 {
		t.Errorf("dm = %v", dm.ToDense())
	}
}

func TestPointDMWeights(t *testing.T) {
	src, _ := NewPolygonSystem(gridPolygons(t, 1, 1, 1, 1), nil)
	tgt, _ := NewPolygonSystem(gridPolygons(t, 1, 1, 1, 1), nil)
	dm, dropped, err := PointDM(src, tgt, [][]float64{{0.5, 0.5}, {0.6, 0.6}}, []float64{2.5, 4})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || dm.At(0, 0) != 6.5 {
		t.Errorf("dm[0][0] = %v dropped %v", dm.At(0, 0), dropped)
	}
	if _, _, err := PointDM(src, tgt, [][]float64{{0, 0}}, []float64{1, 2}); err == nil {
		t.Error("weight length mismatch accepted")
	}
}

func TestIntervalSystem(t *testing.T) {
	p, _ := interval.NewPartition([]float64{0, 10, 30, 60})
	s := NewIntervalSystem(p)
	if s.Len() != 3 || s.Dim() != 1 {
		t.Errorf("Len=%d Dim=%d", s.Len(), s.Dim())
	}
	if s.Measure(1) != 20 {
		t.Errorf("Measure(1) = %v", s.Measure(1))
	}
	if s.Locate([]float64{15}) != 1 {
		t.Errorf("Locate(15) = %d", s.Locate([]float64{15}))
	}
	if s.Locate([]float64{15, 2}) != -1 {
		t.Error("2-D point located in 1-D system")
	}
}

func TestIntervalMeasureDM(t *testing.T) {
	src := NewIntervalSystem(mustPartition(t, []float64{0, 10, 20, 30}))
	tgt := NewIntervalSystem(mustPartition(t, []float64{0, 15, 30}))
	dm, err := MeasureDM(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{10, 0}, {5, 5}, {0, 10}}
	got := dm.ToDense()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("dm[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestBoxSystem3D(t *testing.T) {
	src, _ := ndbox.Grid([]float64{0, 0, 0}, []float64{2, 2, 2}, []int{2, 1, 1})
	tgt, _ := ndbox.Grid([]float64{0, 0, 0}, []float64{2, 2, 2}, []int{1, 2, 1})
	s, g := NewBoxSystem(src), NewBoxSystem(tgt)
	if s.Dim() != 3 {
		t.Errorf("Dim = %d", s.Dim())
	}
	dm, err := MeasureDM(s, g)
	if err != nil {
		t.Fatal(err)
	}
	d := dm.ToDense()
	for i := range d {
		for j := range d[i] {
			if math.Abs(d[i][j]-2) > 1e-12 {
				t.Errorf("dm[%d][%d] = %v, want 2", i, j, d[i][j])
			}
		}
	}
	if s.Measure(0) != 4 {
		t.Errorf("Measure = %v", s.Measure(0))
	}
	if s.Locate([]float64{0.5, 0.5, 0.5}) != 0 {
		t.Errorf("Locate = %d", s.Locate([]float64{0.5, 0.5, 0.5}))
	}
}

func TestMeasureDMKindMismatch(t *testing.T) {
	poly, _ := NewPolygonSystem(gridPolygons(t, 1, 1, 1, 1), nil)
	iv := NewIntervalSystem(mustPartition(t, []float64{0, 1}))
	if _, err := MeasureDM(poly, iv); err == nil {
		t.Error("polygon×interval accepted")
	}
	if _, err := MeasureDM(iv, poly); err == nil {
		t.Error("interval×polygon accepted")
	}
	box, _ := ndbox.Grid([]float64{0}, []float64{1}, []int{1})
	if _, err := MeasureDM(NewBoxSystem(box), iv); err == nil {
		t.Error("box×interval accepted")
	}
}

func TestPointDMDimensionMismatch(t *testing.T) {
	poly, _ := NewPolygonSystem(gridPolygons(t, 1, 1, 1, 1), nil)
	iv := NewIntervalSystem(mustPartition(t, []float64{0, 1}))
	if _, _, err := PointDM(poly, iv, nil, nil); err == nil {
		t.Error("2-D×1-D point aggregation accepted")
	}
}

func mustPartition(t *testing.T, breaks []float64) *interval.Partition {
	t.Helper()
	p, err := interval.NewPartition(breaks)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
