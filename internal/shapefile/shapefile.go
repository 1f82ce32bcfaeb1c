// Package shapefile reads and writes the minimal subset of the ESRI
// shapefile format (the .shp geometry file, the .shx index and the
// .dbf attribute table) needed to exchange polygon unit systems. The
// paper's inputs — TIGER county and ZCTA layers, Esri point layers —
// ship as shapefiles; this package lets the tools in cmd/ emit and
// ingest the same format without any GIS dependency.
//
// Scope: shape type 5 (Polygon) with one outer ring per part (no
// holes) and DBF fields of type C (character) and N (numeric). That
// covers partition layers, including multi-part island units via
// MultiFile; it is not a general-purpose shapefile library.
//
// Two access styles are provided. Read/ReadMulti/Write/WriteMulti work
// on whole in-memory layers; Scanner and Writer stream one record at a
// time with memory bounded by the largest record, which is what the
// out-of-core crosswalk build uses for TIGER-scale inputs.
package shapefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"geoalign/internal/geom"
)

const (
	fileCode     = 9994
	version      = 1000
	shapePolygon = 5
	headerLen    = 100
)

// Record is one polygon with its attribute row.
type Record struct {
	Polygon geom.Polygon
	Attrs   map[string]string
}

// Field describes one DBF column.
type Field struct {
	Name    string // max 10 bytes
	Numeric bool
	Length  int // max 254
}

// File is an in-memory shapefile: records plus the attribute schema.
type File struct {
	Fields  []Field
	Records []Record
}

// Write serialises the file into its three components.
func Write(f *File) (shp, shx, dbf []byte, err error) {
	if err := validateFields(f.Fields); err != nil {
		return nil, nil, nil, err
	}
	shp, shx, err = writeSHP(f.Records)
	if err != nil {
		return nil, nil, nil, err
	}
	dbf, err = writeDBF(f.Fields, f.Records)
	if err != nil {
		return nil, nil, nil, err
	}
	return shp, shx, dbf, nil
}

// Read parses the .shp and (optionally) .dbf components; pass nil dbf
// to skip attributes. Multi-part records are rejected — use ReadMulti
// for layers with island units.
func Read(shp, dbf []byte) (*File, error) {
	mf, err := ReadMulti(shp, dbf)
	if err != nil {
		return nil, err
	}
	f := &File{Fields: mf.Fields}
	for i, r := range mf.Records {
		if len(r.Parts) != 1 {
			return nil, fmt.Errorf("shapefile: record %d has %d parts; use ReadMulti", i, len(r.Parts))
		}
		f.Records = append(f.Records, Record{Polygon: r.Parts[0], Attrs: r.Attrs})
	}
	return f, nil
}

// MultiRecord is one possibly-multi-part polygon with its attributes.
type MultiRecord struct {
	Parts geom.MultiPolygon
	Attrs map[string]string
}

// MultiFile is the multi-part counterpart of File.
type MultiFile struct {
	Fields  []Field
	Records []MultiRecord
}

// WriteMulti serialises a multi-part layer. Each multipolygon becomes
// one Polygon-type record with one shapefile part per polygon.
func WriteMulti(f *MultiFile) (shp, shx, dbf []byte, err error) {
	if err := validateFields(f.Fields); err != nil {
		return nil, nil, nil, err
	}
	parts := make([]geom.MultiPolygon, len(f.Records))
	attrs := make([]Record, len(f.Records))
	for i, r := range f.Records {
		parts[i] = r.Parts
		attrs[i] = Record{Attrs: r.Attrs}
	}
	shp, shx, err = writeSHPParts(parts)
	if err != nil {
		return nil, nil, nil, err
	}
	dbf, err = writeDBF(f.Fields, attrs)
	if err != nil {
		return nil, nil, nil, err
	}
	return shp, shx, dbf, nil
}

// ReadMulti parses a layer keeping multi-part geometries intact. It is
// a collect-all wrapper over Scanner; use the Scanner directly to
// stream layers that should not be materialized.
func ReadMulti(shp, dbf []byte) (*MultiFile, error) {
	var dbfR SizedReaderAt
	if dbf != nil {
		dbfR = bytes.NewReader(dbf)
	}
	sc, err := NewScanner(bytes.NewReader(shp), nil, dbfR)
	if err != nil {
		return nil, err
	}
	f := &MultiFile{Fields: sc.Fields()}
	for sc.Next() {
		f.Records = append(f.Records, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

func validateFields(fields []Field) error {
	for i, fd := range fields {
		if fd.Name == "" || len(fd.Name) > 10 {
			return fmt.Errorf("shapefile: field %d name %q must be 1-10 bytes", i, fd.Name)
		}
		if fd.Length <= 0 || fd.Length > 254 {
			return fmt.Errorf("shapefile: field %q length %d out of range", fd.Name, fd.Length)
		}
	}
	return nil
}

// --- .shp / .shx ---

func writeSHP(records []Record) (shp, shx []byte, err error) {
	parts := make([]geom.MultiPolygon, len(records))
	for i, r := range records {
		parts[i] = geom.SinglePart(r.Polygon)
	}
	return writeSHPParts(parts)
}

// writeSHPParts serialises one polygon record per multipolygon, with
// one shapefile part per polygon.
func writeSHPParts(records []geom.MultiPolygon) (shp, shx []byte, err error) {
	var body bytes.Buffer
	var index bytes.Buffer
	bbox := geom.EmptyBBox()
	offsetWords := headerLen / 2
	for i, mp := range records {
		content, rb, err := encodePolygonRecord(mp)
		if err != nil {
			return nil, nil, fmt.Errorf("shapefile: record %d: %w", i, err)
		}
		bbox = bbox.Union(rb)
		contentWords := len(content) / 2
		_ = binary.Write(&body, binary.BigEndian, int32(i+1))
		_ = binary.Write(&body, binary.BigEndian, int32(contentWords))
		body.Write(content)

		_ = binary.Write(&index, binary.BigEndian, int32(offsetWords))
		_ = binary.Write(&index, binary.BigEndian, int32(contentWords))
		offsetWords += 4 + contentWords
	}
	shp = append(mainHeader((headerLen+body.Len())/2, bbox), body.Bytes()...)
	shx = append(mainHeader((headerLen+index.Len())/2, bbox), index.Bytes()...)
	return shp, shx, nil
}

// encodePolygonRecord emits the content of one Polygon-type record.
// Shapefile outer rings are clockwise; every part is an outer ring.
func encodePolygonRecord(mp geom.MultiPolygon) (content []byte, bbox geom.BBox, err error) {
	if len(mp) == 0 {
		return nil, geom.BBox{}, fmt.Errorf("no parts")
	}
	bbox = mp.BBox()
	rings := make([]geom.Polygon, len(mp))
	totalPoints := 0
	for p, pg := range mp {
		if len(pg) < 3 {
			return nil, geom.BBox{}, fmt.Errorf("part %d is degenerate", p)
		}
		rings[p] = pg.Clone().EnsureCCW().Reverse()
		totalPoints += len(pg) + 1 // closing vertex per part
	}
	var buf bytes.Buffer
	le := binary.LittleEndian
	writeLE := func(v any) { _ = binary.Write(&buf, le, v) }
	writeLE(int32(shapePolygon))
	writeLE(bbox.MinX)
	writeLE(bbox.MinY)
	writeLE(bbox.MaxX)
	writeLE(bbox.MaxY)
	writeLE(int32(len(rings)))
	writeLE(int32(totalPoints))
	start := 0
	for _, ring := range rings {
		writeLE(int32(start))
		start += len(ring) + 1
	}
	for _, ring := range rings {
		for _, p := range ring {
			writeLE(p.X)
			writeLE(p.Y)
		}
		writeLE(ring[0].X)
		writeLE(ring[0].Y)
	}
	return buf.Bytes(), bbox, nil
}

func mainHeader(lengthWords int, bbox geom.BBox) []byte {
	h := make([]byte, headerLen)
	binary.BigEndian.PutUint32(h[0:4], fileCode)
	binary.BigEndian.PutUint32(h[24:28], uint32(lengthWords))
	binary.LittleEndian.PutUint32(h[28:32], version)
	binary.LittleEndian.PutUint32(h[32:36], shapePolygon)
	if bbox.IsEmpty() {
		bbox = geom.BBox{}
	}
	putF64 := func(off int, v float64) {
		binary.LittleEndian.PutUint64(h[off:off+8], math.Float64bits(v))
	}
	putF64(36, bbox.MinX)
	putF64(44, bbox.MinY)
	putF64(52, bbox.MaxX)
	putF64(60, bbox.MaxY)
	// Z and M ranges stay zero.
	return h
}

// parsePolygonRecord decodes one Polygon-type record's content with
// every ring made counter-clockwise. It is the kernel behind
// Scanner.Next and the collect-all readers. Those readers have no
// notion of holes, so a record holding one — a counter-clockwise ring
// inside a clockwise ring — fails with ErrFormat instead of reading the
// hole as one more solid part; ReadHoled reads such layers.
func parsePolygonRecord(b []byte) (geom.MultiPolygon, error) {
	rings, err := parseOrientedRecord(b)
	if err != nil {
		return nil, err
	}
	if i := firstHole(rings); i >= 0 {
		return nil, fmt.Errorf("shapefile: part %d is a hole (a counter-clockwise ring inside a clockwise one); read holed layers with ReadHoled: %w", i, ErrFormat)
	}
	for i, pg := range rings {
		rings[i] = pg.EnsureCCW()
	}
	return rings, nil
}

// parseOrientedRecord decodes one Polygon-type record's content, keeping
// each ring in its file orientation (the hole-aware reader classifies
// rings by it) and dropping the closing vertex. A record whose layout
// is inconsistent, that holds a NaN or ±Inf coordinate, or that has a
// ring of zero shoelace area (every vertex collinear or repeated) fails
// with ErrFormat; one shorter than its own counts fails with
// ErrTruncated.
func parseOrientedRecord(b []byte) ([]geom.Polygon, error) {
	if len(b) < 44 {
		return nil, fmt.Errorf("shapefile: polygon record too short (%d bytes): %w", len(b), ErrTruncated)
	}
	le := binary.LittleEndian
	if st := int32(le.Uint32(b[0:4])); st != shapePolygon {
		return nil, fmt.Errorf("shapefile: record shape type %d unsupported: %w", st, ErrFormat)
	}
	numParts := int(int32(le.Uint32(b[36:40])))
	numPoints := int(int32(le.Uint32(b[40:44])))
	// Every part is at least a triangle plus the closing vertex.
	if numParts < 1 || numParts > numPoints || numPoints < 4 {
		return nil, fmt.Errorf("shapefile: record with %d parts, %d points: %w", numParts, numPoints, ErrFormat)
	}
	ptsOff := 44 + 4*numParts
	need := ptsOff + 16*numPoints
	if need < 0 || len(b) < need {
		return nil, fmt.Errorf("shapefile: record needs %d bytes, has %d: %w", need, len(b), ErrTruncated)
	}
	starts := make([]int, numParts+1)
	for p := 0; p < numParts; p++ {
		starts[p] = int(int32(le.Uint32(b[44+4*p:])))
	}
	starts[numParts] = numPoints
	rings := make([]geom.Polygon, 0, numParts)
	for p := 0; p < numParts; p++ {
		lo, hi := starts[p], starts[p+1]
		if lo < 0 || hi > numPoints || hi-lo < 4 {
			return nil, fmt.Errorf("shapefile: part %d spans [%d,%d) of %d points: %w", p, lo, hi, numPoints, ErrFormat)
		}
		pg := make(geom.Polygon, 0, hi-lo)
		for i := lo; i < hi; i++ {
			x := math.Float64frombits(le.Uint64(b[ptsOff+16*i:]))
			y := math.Float64frombits(le.Uint64(b[ptsOff+16*i+8:]))
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				return nil, fmt.Errorf("shapefile: part %d point %d is (%v, %v), want finite coordinates: %w", p, i-lo, x, y, ErrFormat)
			}
			pg = append(pg, geom.Point{X: x, Y: y})
		}
		if len(pg) > 1 && pg[0] == pg[len(pg)-1] {
			pg = pg[:len(pg)-1]
		}
		if len(pg) < 3 {
			return nil, fmt.Errorf("shapefile: part %d has %d vertices: %w", p, len(pg), ErrFormat)
		}
		if pg.SignedArea() == 0 {
			return nil, fmt.Errorf("shapefile: part %d has zero area: %w", p, ErrFormat)
		}
		rings = append(rings, pg)
	}
	return rings, nil
}

// --- .dbf ---

// buildDBFHeader emits the 32-byte preamble, the field descriptors and
// the 0x0D terminator for a table of numRecords rows.
func buildDBFHeader(fields []Field, numRecords int) []byte {
	recSize := 1 // deletion flag
	for _, f := range fields {
		recSize += f.Length
	}
	headerSize := 32 + 32*len(fields) + 1

	out := make([]byte, 0, headerSize)
	h := make([]byte, 32)
	h[0] = 0x03 // dBASE III, no memo
	h[1], h[2], h[3] = 126, 7, 4
	binary.LittleEndian.PutUint32(h[4:8], uint32(numRecords))
	binary.LittleEndian.PutUint16(h[8:10], uint16(headerSize))
	binary.LittleEndian.PutUint16(h[10:12], uint16(recSize))
	out = append(out, h...)

	for _, f := range fields {
		fd := make([]byte, 32)
		copy(fd[0:11], f.Name)
		if f.Numeric {
			fd[11] = 'N'
		} else {
			fd[11] = 'C'
		}
		fd[16] = byte(f.Length)
		out = append(out, fd...)
	}
	return append(out, 0x0D)
}

// appendDBFRow appends one encoded attribute row. idx is only used in
// error messages.
func appendDBFRow(dst []byte, fields []Field, attrs map[string]string, idx int) ([]byte, error) {
	dst = append(dst, ' ') // not deleted
	for _, f := range fields {
		v := attrs[f.Name]
		if len(v) > f.Length {
			return nil, fmt.Errorf("shapefile: record %d field %q value %q exceeds length %d",
				idx, f.Name, v, f.Length)
		}
		pad := strings.Repeat(" ", f.Length-len(v))
		if f.Numeric {
			// Numeric fields are right-justified, space padded.
			dst = append(dst, pad...)
			dst = append(dst, v...)
		} else {
			dst = append(dst, v...)
			dst = append(dst, pad...)
		}
	}
	return dst, nil
}

func writeDBF(fields []Field, records []Record) ([]byte, error) {
	out := buildDBFHeader(fields, len(records))
	var err error
	for i, r := range records {
		if out, err = appendDBFRow(out, fields, r.Attrs, i); err != nil {
			return nil, err
		}
	}
	return append(out, 0x1A), nil
}

// parseDBFFields decodes the field descriptors (the header bytes past
// the 32-byte preamble, up to and including the 0x0D terminator).
func parseDBFFields(desc []byte) ([]Field, error) {
	var fields []Field
	for off := 0; off+32 <= len(desc)-1; off += 32 {
		fd := desc[off : off+32]
		if fd[0] == 0x0D {
			break
		}
		name := string(bytes.TrimRight(fd[0:11], "\x00"))
		fields = append(fields, Field{
			Name:    name,
			Numeric: fd[11] == 'N' || fd[11] == 'F',
			Length:  int(fd[16]),
		})
	}
	return fields, nil
}

// parseDBFRow decodes one non-deleted record's attribute values.
func parseDBFRow(rec []byte, fields []Field) map[string]string {
	row := make(map[string]string, len(fields))
	p := 1 // past the deletion flag
	for _, f := range fields {
		row[f.Name] = strings.TrimSpace(string(rec[p : p+f.Length]))
		p += f.Length
	}
	return row
}

func readDBF(b []byte) ([]Field, []map[string]string, error) {
	if len(b) < 33 {
		return nil, nil, fmt.Errorf("shapefile: .dbf too short: %w", ErrTruncated)
	}
	numRecords := int(binary.LittleEndian.Uint32(b[4:8]))
	headerSize := int(binary.LittleEndian.Uint16(b[8:10]))
	recSize := int(binary.LittleEndian.Uint16(b[10:12]))
	if headerSize < 33 || headerSize > len(b) {
		return nil, nil, fmt.Errorf("shapefile: bad .dbf header size %d: %w", headerSize, ErrFormat)
	}
	if recSize < 1 {
		return nil, nil, fmt.Errorf("shapefile: bad .dbf record size %d: %w", recSize, ErrFormat)
	}
	if numRecords < 0 || numRecords > (len(b)-headerSize)/recSize+1 {
		return nil, nil, fmt.Errorf("shapefile: .dbf claims %d records of %d bytes but only %d bytes remain: %w",
			numRecords, recSize, len(b)-headerSize, ErrTruncated)
	}
	fields, err := parseDBFFields(b[32:headerSize])
	if err != nil {
		return nil, nil, err
	}
	fieldBytes := 1 // deletion flag
	for _, f := range fields {
		fieldBytes += f.Length
	}
	if fieldBytes > recSize {
		return nil, nil, fmt.Errorf("shapefile: .dbf fields need %d bytes but record size is %d: %w", fieldBytes, recSize, ErrFormat)
	}
	rows := make([]map[string]string, 0, numRecords)
	off := headerSize
	for r := 0; r < numRecords; r++ {
		if off+recSize > len(b) {
			return nil, nil, fmt.Errorf("shapefile: truncated .dbf record %d: %w", r, ErrTruncated)
		}
		rec := b[off : off+recSize]
		off += recSize
		if rec[0] == '*' { // deleted
			continue
		}
		rows = append(rows, parseDBFRow(rec, fields))
	}
	return fields, rows, nil
}

// NumericAttr parses a record's numeric attribute.
func (r Record) NumericAttr(name string) (float64, error) {
	s, ok := r.Attrs[name]
	if !ok || s == "" {
		return 0, fmt.Errorf("shapefile: attribute %q missing", name)
	}
	return strconv.ParseFloat(s, 64)
}

// FormatNumeric renders a float for a numeric DBF field of the given
// width.
func FormatNumeric(v float64, width int) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	if len(s) > width {
		// Reduce precision until it fits.
		for prec := width - 2; prec >= 0; prec-- {
			s = strconv.FormatFloat(v, 'f', prec, 64)
			if len(s) <= width {
				break
			}
		}
	}
	return s
}
