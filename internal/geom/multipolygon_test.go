package geom

import (
	"math"
	"testing"
)

func twoIslands() MultiPolygon {
	return MultiPolygon{
		Rect(BBox{MinX: 0, MinY: 0, MaxX: 2, MaxY: 1}), // area 2
		Rect(BBox{MinX: 5, MinY: 0, MaxX: 6, MaxY: 2}), // area 2
	}
}

func TestMultiPolygonBasics(t *testing.T) {
	mp := twoIslands()
	if mp.Area() != 4 {
		t.Errorf("Area = %v", mp.Area())
	}
	b := mp.BBox()
	if b != (BBox{MinX: 0, MinY: 0, MaxX: 6, MaxY: 2}) {
		t.Errorf("BBox = %v", b)
	}
	if !mp.Contains(Point{X: 1, Y: 0.5}) || !mp.Contains(Point{X: 5.5, Y: 1.5}) {
		t.Error("island points not contained")
	}
	if mp.Contains(Point{X: 3.5, Y: 0.5}) {
		t.Error("gap point contained")
	}
	c := mp.Centroid()
	// Equal areas: centroid midway between (1, 0.5) and (5.5, 1).
	if math.Abs(c.X-3.25) > 1e-12 || math.Abs(c.Y-0.75) > 1e-12 {
		t.Errorf("Centroid = %v", c)
	}
}

func TestSinglePart(t *testing.T) {
	pg := Rect(BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	mp := SinglePart(pg)
	if len(mp) != 1 || mp.Area() != 1 {
		t.Errorf("SinglePart = %v", mp)
	}
}

func TestMultiPolygonValidate(t *testing.T) {
	if err := twoIslands().Validate(); err != nil {
		t.Errorf("valid multipolygon rejected: %v", err)
	}
	if err := (MultiPolygon{}).Validate(); err == nil {
		t.Error("empty multipolygon accepted")
	}
	overlapping := MultiPolygon{
		Rect(BBox{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}),
		Rect(BBox{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3}),
	}
	if err := overlapping.Validate(); err == nil {
		t.Error("overlapping parts accepted")
	}
	degenerate := MultiPolygon{{{X: 0, Y: 0}, {X: 1, Y: 1}}}
	if err := degenerate.Validate(); err == nil {
		t.Error("degenerate part accepted")
	}
}

func TestMultiPolygonClone(t *testing.T) {
	mp := twoIslands()
	c := mp.Clone()
	c[0][0].X = 99
	if mp[0][0].X == 99 {
		t.Error("Clone shares part storage")
	}
}

func TestMultiPolygonEmptyCentroid(t *testing.T) {
	if c := (MultiPolygon{}).Centroid(); c != (Point{}) {
		t.Errorf("empty centroid = %v", c)
	}
}
