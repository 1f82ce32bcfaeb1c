package partition

import (
	"math"
	"testing"

	"geoalign/internal/geom"
)

// islandSystem builds two units over [0,4]×[0,2]: unit 0 is two islands
// (left column pieces), unit 1 is the solid remainder's right half.
func islandSystem(t *testing.T) *PolygonSystem {
	t.Helper()
	units := []geom.MultiPolygon{
		{
			geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}),
			geom.Rect(geom.BBox{MinX: 0, MinY: 1, MaxX: 2, MaxY: 2}),
		},
		{
			geom.Rect(geom.BBox{MinX: 1, MinY: 0, MaxX: 4, MaxY: 1}),
			geom.Rect(geom.BBox{MinX: 2, MinY: 1, MaxX: 4, MaxY: 2}),
		},
	}
	s, err := NewMultiPolygonSystem(units, []string{"archipelago", "mainland"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMultiPolygonSystemBasics(t *testing.T) {
	s := islandSystem(t)
	if s.Len() != 2 || s.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", s.Len(), s.Dim())
	}
	if math.Abs(s.Measure(0)-3) > 1e-12 {
		t.Errorf("Measure(0) = %v, want 3", s.Measure(0))
	}
	if math.Abs(s.Measure(1)-5) > 1e-12 {
		t.Errorf("Measure(1) = %v, want 5", s.Measure(1))
	}
	if got := s.Locate([]float64{0.5, 0.5}); got != 0 {
		t.Errorf("Locate island = %d", got)
	}
	if got := s.Locate([]float64{1.5, 1.5}); got != 0 {
		t.Errorf("Locate second island = %d", got)
	}
	if got := s.Locate([]float64{3, 0.5}); got != 1 {
		t.Errorf("Locate mainland = %d", got)
	}
	if got := s.Locate([]float64{9, 9}); got != -1 {
		t.Errorf("Locate outside = %d", got)
	}
	if got := s.Locate([]float64{1}); got != -1 {
		t.Error("1-D point located")
	}
}

func TestNewMultiPolygonSystemValidation(t *testing.T) {
	if _, err := NewMultiPolygonSystem(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := NewMultiPolygonSystem([]geom.MultiPolygon{{}}, nil); err == nil {
		t.Error("unit with no parts accepted")
	}
	if _, err := NewMultiPolygonSystem(
		[]geom.MultiPolygon{{{{X: 0, Y: 0}, {X: 1, Y: 1}}}}, nil); err == nil {
		t.Error("degenerate part accepted")
	}
	units := []geom.MultiPolygon{geom.SinglePart(geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}))}
	if _, err := NewMultiPolygonSystem(units, []string{"a", "b"}); err == nil {
		t.Error("name mismatch accepted")
	}
}

func TestMultiMeasureDM(t *testing.T) {
	src := islandSystem(t)
	// Target: left/right halves of the same rectangle.
	tgtUnits := []geom.MultiPolygon{
		geom.SinglePart(geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2})),
		geom.SinglePart(geom.Rect(geom.BBox{MinX: 2, MinY: 0, MaxX: 4, MaxY: 2})),
	}
	tgt, err := NewMultiPolygonSystem(tgtUnits, nil)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := MeasureDM(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	// archipelago (area 3) lies fully in the left half; mainland splits
	// 1 (left: the [1,2]×[0,1] piece) / 4 (right).
	if got := dm.At(0, 0); math.Abs(got-3) > 1e-9 {
		t.Errorf("dm[0][0] = %v, want 3", got)
	}
	if got := dm.At(0, 1); got != 0 {
		t.Errorf("dm[0][1] = %v, want 0", got)
	}
	if got := dm.At(1, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("dm[1][0] = %v, want 1", got)
	}
	if got := dm.At(1, 1); math.Abs(got-4) > 1e-9 {
		t.Errorf("dm[1][1] = %v, want 4", got)
	}
}

func TestMeasureDMMixedSystems(t *testing.T) {
	multi := islandSystem(t)
	single, err := NewPolygonSystem([]geom.Polygon{
		geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 4, MaxY: 2}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// multi × single and single × multi both work; totals match areas.
	dm1, err := MeasureDM(multi, single)
	if err != nil {
		t.Fatal(err)
	}
	if got := dm1.At(0, 0); math.Abs(got-3) > 1e-9 {
		t.Errorf("multi×single dm[0][0] = %v", got)
	}
	dm2, err := MeasureDM(single, multi)
	if err != nil {
		t.Fatal(err)
	}
	rows := dm2.RowSums()
	if math.Abs(rows[0]-8) > 1e-9 {
		t.Errorf("single×multi row sum = %v, want 8", rows[0])
	}
}

func TestPointDMWithMultiSystems(t *testing.T) {
	src := islandSystem(t)
	tgt := islandSystem(t)
	dm, dropped, err := PointDM(src, tgt, [][]float64{{0.5, 0.5}, {3, 0.5}, {9, 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %v", dropped)
	}
	if dm.At(0, 0) != 1 || dm.At(1, 1) != 1 {
		t.Errorf("dm = %v", dm.ToDense())
	}
}
