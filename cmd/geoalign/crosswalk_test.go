package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geoalign"
	"geoalign/internal/geom"
	"geoalign/internal/partition"
	"geoalign/internal/shapefile"
	"geoalign/internal/synth"
	"geoalign/internal/table"
)

// writeTigerLayer streams a small tiger lattice to disk and returns the
// base path plus the in-memory copy for baseline computation.
func writeTigerLayer(t *testing.T, dir, base string, cfg synth.TigerConfig) (string, []geom.MultiPolygon, []string) {
	t.Helper()
	p := filepath.Join(dir, base)
	w, closer, err := shapefile.CreateWriter(p, []shapefile.Field{{Name: "NAME", Length: 12}})
	if err != nil {
		t.Fatal(err)
	}
	var units []geom.MultiPolygon
	var names []string
	err = synth.TigerLayer(cfg, func(i int, name string, parts geom.MultiPolygon) error {
		units = append(units, parts)
		names = append(names, name)
		return w.Write(shapefile.MultiRecord{Parts: parts, Attrs: map[string]string{"NAME": name}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	return p, units, names
}

// TestCrosswalkBuildEndToEnd drives `geoalign crosswalk build` over two
// streamed layers with a spill-forcing memory budget, then checks the
// snapshot loads with the right keys and the CSV matches the in-memory
// MeasureDM baseline to 1e-9.
func TestCrosswalkBuildEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srcBase, srcUnits, srcNames := writeTigerLayer(t, dir, "src", synth.TigerConfig{Units: 120, Seed: 11})
	tgtBase, tgtUnits, tgtNames := writeTigerLayer(t, dir, "tgt", synth.TigerConfig{Units: 12, Seed: 12})
	snapPath := filepath.Join(dir, "engine.snap")
	csvPath := filepath.Join(dir, "xwalk.csv")

	var stdout, stderr bytes.Buffer
	err := run([]string{"crosswalk", "build",
		"-src", srcBase, "-tgt", tgtBase,
		"-out", snapPath, "-csv", csvPath,
		"-mem-budget", "16KiB", "-tiles", "3x3", "-workers", "4",
		"-spill-dir", dir,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "spilled") {
		t.Errorf("16 KiB budget produced no spill log: %q", stderr.String())
	}

	al, meta, err := geoalign.OpenSnapshot(snapPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
	if al.SourceUnits() != len(srcUnits) || al.TargetUnits() != len(tgtUnits) {
		t.Fatalf("snapshot shape %dx%d, want %dx%d",
			al.SourceUnits(), al.TargetUnits(), len(srcUnits), len(tgtUnits))
	}
	if strings.Join(meta.SourceKeys, ",") != strings.Join(srcNames, ",") {
		t.Error("source keys do not match layer names")
	}
	if strings.Join(meta.TargetKeys, ",") != strings.Join(tgtNames, ",") {
		t.Error("target keys do not match layer names")
	}

	// An areal crosswalk over two exact partitions of the same rectangle
	// conserves mass: aligning any objective keeps its total.
	objective := make([]float64, len(srcUnits))
	var objTotal float64
	for i := range objective {
		objective[i] = float64(i%7) + 1
		objTotal += objective[i]
	}
	res, err := al.Align(objective)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, v := range res.Target {
		got += v
	}
	if math.Abs(got-objTotal) > 1e-6*objTotal {
		t.Errorf("aligned total %v, want %v", got, objTotal)
	}

	// The emitted CSV equals the in-memory MeasureDM baseline.
	srcSys, err := partition.NewMultiPolygonSystem(srcUnits, srcNames)
	if err != nil {
		t.Fatal(err)
	}
	tgtSys, err := partition.NewMultiPolygonSystem(tgtUnits, tgtNames)
	if err != nil {
		t.Fatal(err)
	}
	want, err := partition.MeasureDM(srcSys, tgtSys)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cw, err := table.ReadCrosswalkCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := cw.ReorderTo(srcNames, tgtNames)
	if err != nil {
		t.Fatal(err)
	}
	if dm.NNZ() != want.NNZ() {
		t.Fatalf("CSV crosswalk has %d entries, baseline %d", dm.NNZ(), want.NNZ())
	}
	for i := 0; i < want.Rows; i++ {
		wCols, wVals := want.Row(i)
		gCols, gVals := dm.Row(i)
		if len(wCols) != len(gCols) {
			t.Fatalf("row %d: %d vs %d entries", i, len(gCols), len(wCols))
		}
		for k := range wCols {
			if gCols[k] != wCols[k] {
				t.Fatalf("row %d entry %d: col %d vs %d", i, k, gCols[k], wCols[k])
			}
			if math.Abs(gVals[k]-wVals[k]) > 1e-9*(1+math.Abs(wVals[k])) {
				t.Fatalf("row %d entry %d: %v vs %v", i, k, gVals[k], wVals[k])
			}
		}
	}
}

func TestCrosswalkBuildValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cases := [][]string{
		{"crosswalk"},
		{"crosswalk", "frobnicate"},
		{"crosswalk", "build"},
		{"crosswalk", "build", "-src", "a", "-tgt", "b"},
		{"crosswalk", "build", "-src", "a", "-tgt", "b", "-out", "c", "-mem-budget", "twelve"},
		{"crosswalk", "build", "-src", "a", "-tgt", "b", "-out", "c", "-tiles", "0x4"},
		{"crosswalk", "build", "-src", "/nonexistent", "-tgt", "/nonexistent", "-out", filepath.Join(t.TempDir(), "x.snap")},
	}
	for _, args := range cases {
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestParseTiles(t *testing.T) {
	for _, c := range []struct {
		in         string
		cols, rows int
		ok         bool
	}{
		{"auto", 0, 0, true},
		{"", 0, 0, true},
		{"8", 8, 8, true},
		{"4x2", 4, 2, true},
		{"0", 0, 0, false},
		{"x", 0, 0, false},
		{"axb", 0, 0, false},
	} {
		cols, rows, err := parseTiles(c.in)
		if c.ok && (err != nil || cols != c.cols || rows != c.rows) {
			t.Errorf("parseTiles(%q) = %d,%d,%v; want %d,%d", c.in, cols, rows, err, c.cols, c.rows)
		}
		if !c.ok && err == nil {
			t.Errorf("parseTiles(%q) succeeded", c.in)
		}
	}
	if _, _, err := parseTiles(fmt.Sprintf("%dx%d", 3, 5)); err != nil {
		t.Error(err)
	}
}

// TestCrosswalkBuildRejectsHoledLayer: a source layer with a 4×4 county
// holding a 1×1 hole (plus the hole's city) fails the build rather than
// crediting the county with the hole's area (row sum 17, not 15).
func TestCrosswalkBuildRejectsHoledLayer(t *testing.T) {
	dir := t.TempDir()
	writeLayer := func(base string, shp, shx, dbf []byte) string {
		p := filepath.Join(dir, base)
		for ext, b := range map[string][]byte{".shp": shp, ".shx": shx, ".dbf": dbf} {
			if err := os.WriteFile(p+ext, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	square := func(lo, hi float64) geom.Polygon {
		return geom.Rect(geom.BBox{MinX: lo, MinY: lo, MaxX: hi, MaxY: hi})
	}
	fields := []shapefile.Field{{Name: "NAME", Length: 8}}
	shp, shx, dbf, err := shapefile.WriteHoled(&shapefile.HoledFile{Fields: fields, Records: []shapefile.HoledRecord{
		{Parts: []geom.HoledPolygon{{Outer: square(0, 4), Holes: []geom.Polygon{square(1, 2)}}}, Attrs: map[string]string{"NAME": "county"}},
		{Parts: []geom.HoledPolygon{geom.Solid(square(1, 2))}, Attrs: map[string]string{"NAME": "city"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	src := writeLayer("src", shp, shx, dbf)
	shp, shx, dbf, err = shapefile.WriteMulti(&shapefile.MultiFile{Fields: fields, Records: []shapefile.MultiRecord{
		{Parts: geom.MultiPolygon{square(0, 4)}, Attrs: map[string]string{"NAME": "all"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tgt := writeLayer("tgt", shp, shx, dbf)

	var stdout, stderr bytes.Buffer
	err = run([]string{"crosswalk", "build", "-src", src, "-tgt", tgt,
		"-out", filepath.Join(dir, "x.snap"), "-tiles", "1x1"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "ReadHoled") {
		t.Fatalf("crosswalk build over a holed layer: err %v, want a hole rejection", err)
	}
}
