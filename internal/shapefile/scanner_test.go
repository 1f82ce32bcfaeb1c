package shapefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"geoalign/internal/geom"
)

// sampleMultiLayer builds a 3-record layer with one multi-part record,
// returning the serialised components.
func sampleMultiLayer(t *testing.T) (shp, shx, dbf []byte) {
	t.Helper()
	rect := func(x, y float64) geom.Polygon {
		return geom.Rect(geom.BBox{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1})
	}
	f := &MultiFile{
		Fields: []Field{{Name: "NAME", Length: 8}, {Name: "POP", Numeric: true, Length: 6}},
		Records: []MultiRecord{
			{Parts: geom.MultiPolygon{rect(0, 0)}, Attrs: map[string]string{"NAME": "a", "POP": "10"}},
			{Parts: geom.MultiPolygon{rect(2, 0), rect(4, 0)}, Attrs: map[string]string{"NAME": "b", "POP": "20"}},
			{Parts: geom.MultiPolygon{rect(0, 2)}, Attrs: map[string]string{"NAME": "c", "POP": "30"}},
		},
	}
	shp, shx, dbf, err := WriteMulti(f)
	if err != nil {
		t.Fatal(err)
	}
	return shp, shx, dbf
}

// scanAll drains a scanner built over the given components (any of shx
// and dbf may be nil) and returns the records and terminal error.
func scanAll(shp, shx, dbf []byte) ([]MultiRecord, error) {
	var shxR, dbfR SizedReaderAt
	if shx != nil {
		shxR = bytes.NewReader(shx)
	}
	if dbf != nil {
		dbfR = bytes.NewReader(dbf)
	}
	sc, err := NewScanner(bytes.NewReader(shp), shxR, dbfR)
	if err != nil {
		return nil, err
	}
	var recs []MultiRecord
	for sc.Next() {
		recs = append(recs, sc.Record())
	}
	return recs, sc.Err()
}

func TestScannerMatchesReadMulti(t *testing.T) {
	shp, shx, dbf := sampleMultiLayer(t)
	want, err := ReadMulti(shp, dbf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scanAll(shp, shx, dbf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Records) {
		t.Fatalf("scanner yielded %d records, ReadMulti %d", len(got), len(want.Records))
	}
	for i, r := range got {
		w := want.Records[i]
		if len(r.Parts) != len(w.Parts) {
			t.Fatalf("record %d: %d parts vs %d", i, len(r.Parts), len(w.Parts))
		}
		for p := range r.Parts {
			if r.Parts[p].Area() != w.Parts[p].Area() {
				t.Errorf("record %d part %d area mismatch", i, p)
			}
		}
		if fmt.Sprint(r.Attrs) != fmt.Sprint(w.Attrs) {
			t.Errorf("record %d attrs %v vs %v", i, r.Attrs, w.Attrs)
		}
	}
}

func TestScannerWithoutOptionalComponents(t *testing.T) {
	shp, _, _ := sampleMultiLayer(t)
	recs, err := scanAll(shp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Attrs != nil {
		t.Errorf("attrs without .dbf: %v", recs[0].Attrs)
	}
}

// TestScannerMutations is the corrupted-input table: every mutation
// must surface as the expected sentinel error — no panics, no silent
// success. It mirrors the snapshot robustness suite.
func TestScannerMutations(t *testing.T) {
	shp, shx, dbf := sampleMultiLayer(t)
	// Offsets within the sample: record 0 header at 100, content at
	// 108; shape type at content+0, numParts at content+36, part
	// starts at content+44.
	const rec0 = 108

	cases := []struct {
		name    string
		mutate  func(shp, shx, dbf []byte) (mshp, mshx, mdbf []byte)
		wantErr error
	}{
		{"shp-cut-header", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			return shp[:50], shx, dbf
		}, ErrTruncated},
		{"shp-cut-record-content", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			return shp[:rec0+20], shx, dbf
		}, ErrTruncated},
		{"shp-cut-record-header", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			return shp[:104], shx, dbf
		}, ErrTruncated},
		{"shp-bad-file-code", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), shp...)
			m[0] = 0xAA
			return m, shx, dbf
		}, ErrFormat},
		{"shp-bad-shape-type", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), shp...)
			binary.LittleEndian.PutUint32(m[32:36], 11) // PointZ
			return m, shx, dbf
		}, ErrFormat},
		{"shp-record-shape-type", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), shp...)
			binary.LittleEndian.PutUint32(m[rec0:rec0+4], 3) // PolyLine record
			return m, shx, dbf
		}, ErrFormat},
		{"shp-negative-record-length", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), shp...)
			binary.BigEndian.PutUint32(m[104:108], 0xFFFFFFF0)
			return m, nil, dbf
		}, ErrFormat},
		{"shp-absurd-record-length", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), shp...)
			binary.BigEndian.PutUint32(m[104:108], 1<<30)
			return m, nil, dbf
		}, ErrTruncated},
		{"shp-bad-part-start", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), shp...)
			binary.LittleEndian.PutUint32(m[rec0+44:rec0+48], 0xFFFFFF00) // negative start
			return m, shx, dbf
		}, ErrFormat},
		{"shp-part-count-exceeds-points", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), shp...)
			binary.LittleEndian.PutUint32(m[rec0+36:rec0+40], 1000)
			return m, shx, dbf
		}, ErrFormat},
		{"shx-missing-entry", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			return shp, shx[:len(shx)-8], dbf
		}, ErrIndexMismatch},
		{"shx-extra-entry", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), shx...)
			m = append(m, m[len(m)-8:]...)
			return shp, m, dbf
		}, ErrIndexMismatch},
		{"shx-ragged-body", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			return shp, shx[:len(shx)-3], dbf
		}, ErrIndexMismatch},
		{"shx-wrong-offset", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), shx...)
			binary.BigEndian.PutUint32(m[100:104], 9999)
			return shp, m, dbf
		}, ErrIndexMismatch},
		{"shx-wrong-length", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), shx...)
			binary.BigEndian.PutUint32(m[112:116], 4)
			return shp, m, dbf
		}, ErrIndexMismatch},
		{"dbf-too-short", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			return shp, shx, dbf[:20]
		}, ErrTruncated},
		{"dbf-bad-header-size", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), dbf...)
			binary.LittleEndian.PutUint16(m[8:10], 5)
			return shp, shx, m
		}, ErrFormat},
		{"dbf-row-deficit", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), dbf...)
			binary.LittleEndian.PutUint32(m[4:8], 2)
			return shp, shx, m
		}, ErrFormat},
		{"dbf-deleted-row", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			m := append([]byte(nil), dbf...)
			headerSize := int(binary.LittleEndian.Uint16(m[8:10]))
			recSize := int(binary.LittleEndian.Uint16(m[10:12]))
			m[headerSize+recSize] = '*' // delete row 1 of 3
			return shp, shx, m
		}, ErrFormat},
		{"dbf-truncated-rows", func(shp, shx, dbf []byte) ([]byte, []byte, []byte) {
			headerSize := int(binary.LittleEndian.Uint16(dbf[8:10]))
			recSize := int(binary.LittleEndian.Uint16(dbf[10:12]))
			return shp, shx, dbf[:headerSize+recSize+recSize/2]
		}, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mshp, mshx, mdbf := tc.mutate(shp, shx, dbf)
			recs, err := scanAll(mshp, mshx, mdbf)
			if err == nil {
				t.Fatalf("mutation accepted; yielded %d records", len(recs))
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v, want sentinel %v", err, tc.wantErr)
			}
			// Every sentinel is exactly one of the three classes.
			n := 0
			for _, s := range []error{ErrTruncated, ErrFormat, ErrIndexMismatch} {
				if errors.Is(err, s) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("error %v matches %d sentinel classes", err, n)
			}
		})
	}
}

// TestNonFiniteCoordinatesRejected: a record holding a NaN or ±Inf X or
// Y fails with ErrFormat in the streaming scanner and in the hole-aware
// reader alike, since both decode rings through one parser.
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	shp, shx, dbf := sampleMultiLayer(t)
	if _, err := scanAll(shp, shx, dbf); err != nil {
		t.Fatalf("clean layer, scanner: %v", err)
	}
	if _, err := ReadHoled(shp, dbf); err != nil {
		t.Fatalf("clean layer, holed reader: %v", err)
	}
	// Record 0 has one part, so its points start at content+48; point 1
	// is not the closing vertex.
	const pt1 = 108 + 48 + 16
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, off := range []int{pt1, pt1 + 8} {
			m := append([]byte(nil), shp...)
			binary.LittleEndian.PutUint64(m[off:], math.Float64bits(bad))
			if _, err := scanAll(m, shx, dbf); !errors.Is(err, ErrFormat) {
				t.Errorf("scanner, %v at byte %d: err %v, want ErrFormat", bad, off, err)
			}
			if _, err := ReadHoled(m, dbf); !errors.Is(err, ErrFormat) {
				t.Errorf("holed reader, %v at byte %d: err %v, want ErrFormat", bad, off, err)
			}
		}
	}
}

// zeroAreaLayers returns sampleMultiLayer's .shp with record 0's only
// ring flattened to zero area in two ways: every vertex moved onto the
// x axis (collinear), and every vertex moved to the origin (repeated).
// The closing vertex still equals the first, so only the area is wrong.
func zeroAreaLayers(t *testing.T) (bad map[string][]byte, shx, dbf []byte) {
	t.Helper()
	shp, shx, dbf := sampleMultiLayer(t)
	// Record 0 has one part of 5 points starting at content+48.
	const pts, n = 108 + 48, 5
	bad = map[string][]byte{}
	collinear := append([]byte(nil), shp...)
	repeated := append([]byte(nil), shp...)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(collinear[pts+16*i+8:], math.Float64bits(0))
		binary.LittleEndian.PutUint64(repeated[pts+16*i:], math.Float64bits(0))
		binary.LittleEndian.PutUint64(repeated[pts+16*i+8:], math.Float64bits(0))
	}
	bad["collinear"], bad["repeated"] = collinear, repeated
	return bad, shx, dbf
}

// TestScannerRejectsZeroAreaRing: a ring enclosing no area fails the
// streaming scanner (and ReadMulti over it) with ErrFormat.
func TestScannerRejectsZeroAreaRing(t *testing.T) {
	bad, shx, dbf := zeroAreaLayers(t)
	for name, shp := range bad {
		if _, err := scanAll(shp, shx, dbf); !errors.Is(err, ErrFormat) {
			t.Errorf("%s ring, scanner: err %v, want ErrFormat", name, err)
		}
		if _, err := ReadMulti(shp, dbf); !errors.Is(err, ErrFormat) {
			t.Errorf("%s ring, ReadMulti: err %v, want ErrFormat", name, err)
		}
	}
}

// TestReadHoledRejectsZeroAreaRing: the hole-aware reader rejects a
// ring enclosing no area with ErrFormat too.
func TestReadHoledRejectsZeroAreaRing(t *testing.T) {
	bad, _, dbf := zeroAreaLayers(t)
	for name, shp := range bad {
		if _, err := ReadHoled(shp, dbf); !errors.Is(err, ErrFormat) {
			t.Errorf("%s ring, holed reader: err %v, want ErrFormat", name, err)
		}
	}
}

// TestScannerDBFSurplusRows pins the trailing-row check: a .dbf with
// more live rows than geometries fails at end of scan.
func TestScannerDBFSurplusRows(t *testing.T) {
	shp, shx, dbf := sampleMultiLayer(t)
	// Rebuild the .dbf with an extra row.
	f := &MultiFile{Fields: []Field{{Name: "NAME", Length: 8}, {Name: "POP", Numeric: true, Length: 6}}}
	for i := 0; i < 4; i++ {
		f.Records = append(f.Records, MultiRecord{
			Parts: geom.MultiPolygon{geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})},
			Attrs: map[string]string{"NAME": "x", "POP": "1"},
		})
	}
	_, _, dbf4, err := WriteMulti(f)
	if err != nil {
		t.Fatal(err)
	}
	_ = dbf
	if _, err := scanAll(shp, shx, dbf4); !errors.Is(err, ErrFormat) {
		t.Fatalf("surplus attribute rows: err = %v, want ErrFormat", err)
	}
}

func TestOpenScanner(t *testing.T) {
	shp, shx, dbf := sampleMultiLayer(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "layer")
	for ext, data := range map[string][]byte{".shp": shp, ".shx": shx, ".dbf": dbf} {
		if err := os.WriteFile(base+ext, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sc, closer, err := OpenScanner(base)
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	n := 0
	for sc.Next() {
		n++
		if sc.Record().Attrs["NAME"] == "" {
			t.Errorf("record %d missing NAME", n-1)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("scanned %d records, want 3", n)
	}
	if got := len(sc.Fields()); got != 2 {
		t.Fatalf("fields = %d, want 2", got)
	}

	// Accepts the .shp path itself, and works without .shx/.dbf.
	if err := os.Remove(base + ".shx"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(base + ".dbf"); err != nil {
		t.Fatal(err)
	}
	sc2, closer2, err := OpenScanner(base + ".shp")
	if err != nil {
		t.Fatal(err)
	}
	defer closer2()
	n = 0
	for sc2.Next() {
		n++
	}
	if err := sc2.Err(); err != nil || n != 3 {
		t.Fatalf("bare .shp scan: n=%d err=%v", n, err)
	}
}
