package shapefile

import (
	"bytes"
	"errors"
	"testing"

	"geoalign/internal/geom"
)

// FuzzReadSHP checks the .shp parser never panics or over-allocates on
// arbitrary bytes — it must either return polygons or an error.
func FuzzReadSHP(f *testing.F) {
	shp, _, dbf, err := Write(&File{
		Fields: []Field{{Name: "N", Length: 4}},
		Records: []Record{{
			Polygon: geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}),
			Attrs:   map[string]string{"N": "a"},
		}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shp, dbf)
	f.Add([]byte{}, []byte{})
	f.Add(shp[:50], dbf[:10])
	// Header claiming absurd record sizes.
	corrupt := append([]byte(nil), shp...)
	corrupt[104] = 0xFF
	corrupt[105] = 0xFF
	f.Add(corrupt, dbf)

	f.Fuzz(func(t *testing.T, shpData, dbfData []byte) {
		var dbfArg []byte
		if len(dbfData) > 0 {
			dbfArg = dbfData
		}
		file, err := Read(shpData, dbfArg)
		if err != nil {
			return
		}
		// Whatever parsed must be structurally sound.
		for i, r := range file.Records {
			if len(r.Polygon) < 3 {
				t.Fatalf("record %d has %d vertices", i, len(r.Polygon))
			}
		}
	})
}

// FuzzScanner drives the streaming reader over arbitrary .shp/.shx/.dbf
// bytes: it must never panic, every failure must wrap exactly one of
// the sentinel error classes, and on the .shp+.dbf subset it must agree
// with ReadMulti (same records or both erroring).
func FuzzScanner(f *testing.F) {
	shp, shx, dbf, err := WriteMulti(&MultiFile{
		Fields: []Field{{Name: "N", Length: 4}},
		Records: []MultiRecord{
			{
				Parts: geom.MultiPolygon{
					geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}),
					geom.Rect(geom.BBox{MinX: 2, MinY: 0, MaxX: 3, MaxY: 1}),
				},
				Attrs: map[string]string{"N": "a"},
			},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shp, shx, dbf)
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add(shp[:60], shx[:80], dbf[:8])
	f.Add(shp, shx[:len(shx)-8], dbf)
	corrupt := append([]byte(nil), shp...)
	corrupt[104] = 0xFF
	corrupt[105] = 0xFF
	f.Add(corrupt, shx, dbf)
	// A holed layer: the scanner must reject the holed record, never
	// read its hole as a solid part.
	hshp, hshx, hdbf, err := WriteHoled(holedSample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hshp, hshx, hdbf)

	f.Fuzz(func(t *testing.T, shpData, shxData, dbfData []byte) {
		var shxR, dbfR SizedReaderAt
		if len(shxData) > 0 {
			shxR = bytes.NewReader(shxData)
		}
		var dbfArg []byte
		if len(dbfData) > 0 {
			dbfArg = dbfData
			dbfR = bytes.NewReader(dbfData)
		}
		sc, err := NewScanner(bytes.NewReader(shpData), shxR, dbfR)
		var recs []MultiRecord
		if err == nil {
			for sc.Next() {
				recs = append(recs, sc.Record())
			}
			err = sc.Err()
		}
		if err != nil {
			n := 0
			for _, s := range []error{ErrTruncated, ErrFormat, ErrIndexMismatch} {
				if errors.Is(err, s) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("scanner error %v matches %d sentinel classes, want 1", err, n)
			}
		}
		for i, r := range recs {
			for p, pg := range r.Parts {
				if len(pg) < 3 {
					t.Fatalf("record %d part %d has %d vertices", i, p, len(pg))
				}
			}
		}
		// Without an .shx the scanner IS ReadMulti's engine; with one it
		// may only reject more, never yield different records.
		mf, merr := ReadMulti(shpData, dbfArg)
		if err == nil {
			if merr != nil {
				t.Fatalf("scanner accepted what ReadMulti rejects: %v", merr)
			}
			if len(mf.Records) != len(recs) {
				t.Fatalf("scanner yielded %d records, ReadMulti %d", len(recs), len(mf.Records))
			}
		}
	})
}
