package partition

import (
	"math"
	"testing"

	"geoalign/internal/geom"
)

// countyAndCity builds the independent-city topology: unit 0 is a 4x4
// county with a 1x1 hole, unit 1 is the city filling the hole.
func countyAndCity(t *testing.T) *PolygonSystem {
	t.Helper()
	units := []geom.HoledPolygon{
		{
			Outer: geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}),
			Holes: []geom.Polygon{geom.Rect(geom.BBox{MinX: 1.5, MinY: 1.5, MaxX: 2.5, MaxY: 2.5})},
		},
		geom.Solid(geom.Rect(geom.BBox{MinX: 1.5, MinY: 1.5, MaxX: 2.5, MaxY: 2.5})),
	}
	s, err := NewHoledPolygonSystem(units, []string{"county", "city"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHoledSystemBasics(t *testing.T) {
	s := countyAndCity(t)
	if s.Len() != 2 || s.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", s.Len(), s.Dim())
	}
	if math.Abs(s.Measure(0)-15) > 1e-12 || math.Abs(s.Measure(1)-1) > 1e-12 {
		t.Errorf("measures = %v %v", s.Measure(0), s.Measure(1))
	}
	if got := s.Locate([]float64{0.5, 0.5}); got != 0 {
		t.Errorf("county point = %d", got)
	}
	if got := s.Locate([]float64{2, 2}); got != 1 {
		t.Errorf("city point = %d (innermost must win)", got)
	}
	if got := s.Locate([]float64{9, 9}); got != -1 {
		t.Errorf("outside = %d", got)
	}
	if got := s.Locate([]float64{1}); got != -1 {
		t.Error("1-D point located")
	}
}

func TestNewHoledSystemValidation(t *testing.T) {
	if _, err := NewHoledPolygonSystem(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := NewHoledPolygonSystem([]geom.HoledPolygon{{}}, nil); err == nil {
		t.Error("degenerate outer accepted")
	}
	units := []geom.HoledPolygon{geom.Solid(geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}))}
	if _, err := NewHoledPolygonSystem(units, []string{"a", "b"}); err == nil {
		t.Error("name mismatch accepted")
	}
}

func TestHoledMeasureDM(t *testing.T) {
	src := countyAndCity(t)
	// Target: left/right halves.
	tgt, err := NewPolygonSystem([]geom.Polygon{
		geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 2, MaxY: 4}),
		geom.Rect(geom.BBox{MinX: 2, MinY: 0, MaxX: 4, MaxY: 4}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := MeasureDM(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	// County: 8 per half minus the hole share (0.5 each) = 7.5 / 7.5.
	if got := dm.At(0, 0); math.Abs(got-7.5) > 1e-9 {
		t.Errorf("county-left = %v, want 7.5", got)
	}
	if got := dm.At(0, 1); math.Abs(got-7.5) > 1e-9 {
		t.Errorf("county-right = %v, want 7.5", got)
	}
	// City: 0.5 / 0.5.
	if got := dm.At(1, 0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("city-left = %v, want 0.5", got)
	}
	// Row sums equal unit measures; column sums equal target areas.
	rows := dm.RowSums()
	if math.Abs(rows[0]-15) > 1e-9 || math.Abs(rows[1]-1) > 1e-9 {
		t.Errorf("row sums = %v", rows)
	}
	cols := dm.ColSums()
	if math.Abs(cols[0]-8) > 1e-9 || math.Abs(cols[1]-8) > 1e-9 {
		t.Errorf("col sums = %v", cols)
	}
	// The reversed direction works too.
	dm2, err := MeasureDM(tgt, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := dm2.At(0, 1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("reverse city entry = %v", got)
	}
}

func TestHoledPointDM(t *testing.T) {
	src := countyAndCity(t)
	tgt := countyAndCity(t)
	dm, dropped, err := PointDM(src, tgt, [][]float64{
		{0.5, 0.5}, // county
		{2, 2},     // city
		{9, 9},     // outside
	}, nil)
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

func TestHoledMixedKindError(t *testing.T) {
	holed := countyAndCity(t)
	iv := NewIntervalSystem(mustPartition(t, []float64{0, 1}))
	if _, err := MeasureDM(holed, iv); err == nil {
		t.Error("holed×interval accepted")
	}
}

// TestMixedHoledMultiMeasureDM measures a holed layer against a
// multi-part layer, both ways: a county with an enclave city in its
// hole plus an island county, against two targets that each hold one
// half of the mainland and one half of the island. Mass is preserved
// (row sums are the unit areas, column sums the target areas) and the
// join agrees with the brute oracle.
func TestMixedHoledMultiMeasureDM(t *testing.T) {
	city := geom.RegularPolygon(geom.Point{X: 1.5, Y: 1}, 0.5, 6, 0.2)
	holed, err := NewHoledPolygonSystem([]geom.HoledPolygon{
		{Outer: geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 3, MaxY: 2}), Holes: []geom.Polygon{city}},
		geom.Solid(city.Clone()),
		geom.Solid(geom.Rect(geom.BBox{MinX: 3.5, MinY: 0.5, MaxX: 4.5, MaxY: 1.5})),
	}, []string{"county", "city", "island"})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewMultiPolygonSystem([]geom.MultiPolygon{
		{
			geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 1.5, MaxY: 2}),
			geom.Rect(geom.BBox{MinX: 3.5, MinY: 0.5, MaxX: 4, MaxY: 1.5}),
		},
		{
			geom.Rect(geom.BBox{MinX: 1.5, MinY: 0, MaxX: 3, MaxY: 2}),
			geom.Rect(geom.BBox{MinX: 4, MinY: 0.5, MaxX: 4.5, MaxY: 1.5}),
		},
	}, []string{"west", "east"})
	if err != nil {
		t.Fatal(err)
	}
	relEq := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	for _, dir := range []struct {
		name     string
		src, tgt System
	}{{"holed→multi", holed, multi}, {"multi→holed", multi, holed}} {
		join, brute := measureBoth(t, dir.src, dir.tgt)
		csrsEqual(t, join, brute, dir.name+" join vs brute", 1e-9)
		for i, got := range join.RowSums() {
			if want := dir.src.Measure(i); !relEq(got, want) {
				t.Errorf("%s: row %d sums to %.17g, unit area %.17g", dir.name, i, got, want)
			}
		}
		for j, got := range join.ColSums() {
			if want := dir.tgt.Measure(j); !relEq(got, want) {
				t.Errorf("%s: column %d sums to %.17g, target area %.17g", dir.name, j, got, want)
			}
		}
	}
	if got := holed.Measure(0) + holed.Measure(1) + holed.Measure(2); !relEq(got, multi.Measure(0)+multi.Measure(1)) {
		t.Errorf("layers cover different areas: %v vs %v", got, multi.Measure(0)+multi.Measure(1))
	}
}
