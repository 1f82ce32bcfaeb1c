package shapefile

import (
	"encoding/binary"
	"fmt"
	"math"

	"geoalign/internal/geom"
)

// HoledRecord is one polygon record with orientation-classified rings:
// in the ESRI spec, clockwise rings are outer boundaries and
// counter-clockwise rings are holes. Each hole is attached to the
// smallest outer ring that contains it. Records with several outer
// rings and holes yield one HoledPolygon per outer ring.
type HoledRecord struct {
	Parts []geom.HoledPolygon
	Attrs map[string]string
}

// HoledFile is the hole-aware counterpart of File.
type HoledFile struct {
	Fields  []Field
	Records []HoledRecord
}

// ReadHoled parses a layer classifying each record's rings by
// orientation: CW rings become outer boundaries, CCW rings become holes
// assigned to their smallest containing outer ring.
func ReadHoled(shp, dbf []byte) (*HoledFile, error) {
	raw, err := readSHPOriented(shp)
	if err != nil {
		return nil, err
	}
	f := &HoledFile{}
	for i, rings := range raw {
		parts, err := classifyRings(rings)
		if err != nil {
			return nil, fmt.Errorf("shapefile: record %d: %w", i, err)
		}
		f.Records = append(f.Records, HoledRecord{Parts: parts})
	}
	if dbf != nil {
		fields, rows, err := readDBF(dbf)
		if err != nil {
			return nil, err
		}
		if len(rows) != len(raw) {
			return nil, fmt.Errorf("shapefile: %d geometries but %d attribute rows", len(raw), len(rows))
		}
		f.Fields = fields
		for i := range f.Records {
			f.Records[i].Attrs = rows[i]
		}
	}
	return f, nil
}

// WriteHoled serialises a hole-aware layer: outer rings CW, holes CCW,
// all within one record per HoledRecord.
func WriteHoled(f *HoledFile) (shp, shx, dbf []byte, err error) {
	if err := validateFields(f.Fields); err != nil {
		return nil, nil, nil, err
	}
	recs := make([][]geom.Polygon, len(f.Records))
	attrs := make([]Record, len(f.Records))
	for i, r := range f.Records {
		if len(r.Parts) == 0 {
			return nil, nil, nil, fmt.Errorf("shapefile: record %d has no parts", i)
		}
		for _, hp := range r.Parts {
			if len(hp.Outer) < 3 {
				return nil, nil, nil, fmt.Errorf("shapefile: record %d has a degenerate outer ring", i)
			}
			recs[i] = append(recs[i], hp.Outer.Clone().EnsureCCW().Reverse()) // CW outer
			for _, h := range hp.Holes {
				if len(h) < 3 {
					return nil, nil, nil, fmt.Errorf("shapefile: record %d has a degenerate hole", i)
				}
				recs[i] = append(recs[i], h.Clone().EnsureCCW()) // CCW hole
			}
		}
		attrs[i] = Record{Attrs: r.Attrs}
	}
	shp, shx, err = writeSHPRings(recs)
	if err != nil {
		return nil, nil, nil, err
	}
	dbf, err = writeDBF(f.Fields, attrs)
	if err != nil {
		return nil, nil, nil, err
	}
	return shp, shx, dbf, nil
}

// classifyRings splits orientation-preserved rings into holed polygons.
func classifyRings(rings []geom.Polygon) ([]geom.HoledPolygon, error) {
	var outers, holes []geom.Polygon
	for _, ring := range rings {
		if ring.SignedArea() < 0 { // CW ⇒ outer boundary
			outers = append(outers, ring.Clone().EnsureCCW())
		} else {
			holes = append(holes, ring)
		}
	}
	if len(outers) == 0 {
		if len(holes) == 1 {
			// Some producers emit single-ring polygons CCW; tolerate.
			return []geom.HoledPolygon{{Outer: holes[0]}}, nil
		}
		return nil, fmt.Errorf("no outer (clockwise) ring among %d rings", len(rings))
	}
	parts := make([]geom.HoledPolygon, len(outers))
	for oi, o := range outers {
		parts[oi].Outer = o
	}
	for _, h := range holes {
		best := holeOwner(outers, h)
		if best < 0 {
			return nil, fmt.Errorf("hole not contained in any outer ring")
		}
		parts[best].Holes = append(parts[best].Holes, h)
	}
	return parts, nil
}

// holeOwner returns the index of the smallest ring in outers that
// contains hole h's first vertex, or -1 when none does.
func holeOwner(outers []geom.Polygon, h geom.Polygon) int {
	best, bestArea := -1, math.Inf(1)
	for oi, o := range outers {
		if o.Contains(h[0]) && o.Area() < bestArea {
			best, bestArea = oi, o.Area()
		}
	}
	return best
}

// firstHole returns the index of the first ring that classifyRings
// would attach to an outer ring as a hole — a counter-clockwise ring
// inside a clockwise one — or -1 when the record has none.
func firstHole(rings []geom.Polygon) int {
	cw := 0
	for _, ring := range rings {
		if ring.SignedArea() < 0 {
			cw++
		}
	}
	if cw == 0 || cw == len(rings) {
		return -1 // single orientation: no ring can be a hole
	}
	outers := make([]geom.Polygon, 0, cw)
	for _, ring := range rings {
		if ring.SignedArea() < 0 {
			outers = append(outers, ring)
		}
	}
	for i, ring := range rings {
		if ring.SignedArea() > 0 && holeOwner(outers, ring) >= 0 {
			return i
		}
	}
	return -1
}

// readSHPOriented parses records keeping each ring's file orientation
// (no EnsureCCW), so holes remain distinguishable.
func readSHPOriented(shp []byte) ([][]geom.Polygon, error) {
	if len(shp) < headerLen {
		return nil, fmt.Errorf("shapefile: .shp too short (%d bytes)", len(shp))
	}
	if code := binary.BigEndian.Uint32(shp[0:4]); code != fileCode {
		return nil, fmt.Errorf("shapefile: bad file code %d", code)
	}
	if st := binary.LittleEndian.Uint32(shp[32:36]); st != shapePolygon {
		return nil, fmt.Errorf("shapefile: shape type %d unsupported (want %d)", st, shapePolygon)
	}
	var out [][]geom.Polygon
	off := headerLen
	for off < len(shp) {
		if off+8 > len(shp) {
			return nil, fmt.Errorf("shapefile: truncated record header at %d", off)
		}
		contentWords := int(int32(binary.BigEndian.Uint32(shp[off+4 : off+8])))
		off += 8
		if contentWords < 0 {
			return nil, fmt.Errorf("shapefile: negative record length at %d", off-4)
		}
		end := off + contentWords*2
		if end > len(shp) || end < off {
			return nil, fmt.Errorf("shapefile: truncated record content at %d", off)
		}
		rings, err := parseOrientedRecord(shp[off:end])
		if err != nil {
			return nil, err
		}
		out = append(out, rings)
		off = end
	}
	return out, nil
}

// writeSHPRings serialises pre-oriented rings (no orientation fix-ups).
func writeSHPRings(records [][]geom.Polygon) (shp, shx []byte, err error) {
	var body, index []byte
	bbox := geom.EmptyBBox()
	offsetWords := headerLen / 2
	for i, rings := range records {
		content, rb, err := encodeRings(rings)
		if err != nil {
			return nil, nil, fmt.Errorf("shapefile: record %d: %w", i, err)
		}
		bbox = bbox.Union(rb)
		contentWords := len(content) / 2
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(i+1))
		binary.BigEndian.PutUint32(hdr[4:8], uint32(contentWords))
		body = append(body, hdr[:]...)
		body = append(body, content...)

		var idx [8]byte
		binary.BigEndian.PutUint32(idx[0:4], uint32(offsetWords))
		binary.BigEndian.PutUint32(idx[4:8], uint32(contentWords))
		index = append(index, idx[:]...)
		offsetWords += 4 + contentWords
	}
	shp = append(mainHeader((headerLen+len(body))/2, bbox), body...)
	shx = append(mainHeader((headerLen+len(index))/2, bbox), index...)
	return shp, shx, nil
}

// encodeRings emits one record's rings exactly as given.
func encodeRings(rings []geom.Polygon) (content []byte, bbox geom.BBox, err error) {
	if len(rings) == 0 {
		return nil, geom.BBox{}, fmt.Errorf("no rings")
	}
	bbox = geom.EmptyBBox()
	total := 0
	for p, ring := range rings {
		if len(ring) < 3 {
			return nil, geom.BBox{}, fmt.Errorf("ring %d is degenerate", p)
		}
		bbox = bbox.Union(ring.BBox())
		total += len(ring) + 1
	}
	out := make([]byte, 0, 44+4*len(rings)+16*total)
	le := binary.LittleEndian
	put32 := func(v int32) {
		var b [4]byte
		le.PutUint32(b[:], uint32(v))
		out = append(out, b[:]...)
	}
	putF := func(v float64) {
		var b [8]byte
		le.PutUint64(b[:], math.Float64bits(v))
		out = append(out, b[:]...)
	}
	put32(shapePolygon)
	putF(bbox.MinX)
	putF(bbox.MinY)
	putF(bbox.MaxX)
	putF(bbox.MaxY)
	put32(int32(len(rings)))
	put32(int32(total))
	start := 0
	for _, ring := range rings {
		put32(int32(start))
		start += len(ring) + 1
	}
	for _, ring := range rings {
		for _, p := range ring {
			putF(p.X)
			putF(p.Y)
		}
		putF(ring[0].X)
		putF(ring[0].Y)
	}
	return out, bbox, nil
}
