// Package table implements the plain-table data model the paper's
// pipeline runs on: aggregate tables (unit name → value, like the
// steam-consumption-by-zip-code table of Figure 1) and crosswalk
// relationship files (source unit, target unit, value — the CSV form
// in which disaggregation matrices such as the HUD/USPS zip–county
// crosswalk are published). Both round-trip through CSV.
package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"geoalign/internal/sparse"
)

// Aggregate is an attribute aggregated over named units: the pair
// (unit key, value) for every unit of one unit system.
type Aggregate struct {
	Attribute string
	Keys      []string
	Values    []float64
	index     map[string]int
}

// NewAggregate builds an aggregate table. Keys must be unique and match
// values one-to-one.
func NewAggregate(attribute string, keys []string, values []float64) (*Aggregate, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("table: %d keys but %d values", len(keys), len(values))
	}
	idx := make(map[string]int, len(keys))
	for i, k := range keys {
		if _, dup := idx[k]; dup {
			return nil, fmt.Errorf("table: duplicate unit key %q", k)
		}
		idx[k] = i
	}
	return &Aggregate{
		Attribute: attribute,
		Keys:      append([]string(nil), keys...),
		Values:    append([]float64(nil), values...),
		index:     idx,
	}, nil
}

// Len returns the number of units.
func (a *Aggregate) Len() int { return len(a.Keys) }

// Value returns the value for a unit key.
func (a *Aggregate) Value(key string) (float64, bool) {
	i, ok := a.index[key]
	if !ok {
		return 0, false
	}
	return a.Values[i], true
}

// Index returns the row index of a unit key, or -1.
func (a *Aggregate) Index(key string) int {
	i, ok := a.index[key]
	if !ok {
		return -1
	}
	return i
}

// Total returns the sum of all values.
func (a *Aggregate) Total() float64 {
	var s float64
	for _, v := range a.Values {
		s += v
	}
	return s
}

// Reorder returns the values permuted into the order of the given keys.
// Keys absent from the table are an error; extra table keys are
// dropped. This is how tables from different files are aligned onto one
// unit indexing before running a crosswalk.
func (a *Aggregate) Reorder(keys []string) ([]float64, error) {
	out := make([]float64, len(keys))
	for i, k := range keys {
		v, ok := a.Value(k)
		if !ok {
			return nil, fmt.Errorf("table: attribute %q has no unit %q", a.Attribute, k)
		}
		out[i] = v
	}
	return out, nil
}

// ReorderLoose reorders the values into the order of the given keys
// with outer-join semantics: units the table does not report come out
// zero, and extra table keys are dropped. This is how autojoin and the
// catalog place partially-overlapping tables onto one unit indexing.
func (a *Aggregate) ReorderLoose(keys []string) []float64 {
	out := make([]float64, len(keys))
	for i, k := range keys {
		if v, ok := a.Value(k); ok {
			out[i] = v
		}
	}
	return out
}

// WriteCSV emits the table as CSV with a header row [unit, attribute].
func (a *Aggregate) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"unit", a.Attribute}); err != nil {
		return err
	}
	for i, k := range a.Keys {
		if err := cw.Write([]string{k, strconv.FormatFloat(a.Values[i], 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// parseValue parses one CSV value cell. Aggregates and crosswalk
// entries count a non-negative measure, so NaN, ±Inf and negative
// values are rejected along with unparsable ones, naming the line.
func parseValue(line int, cell string) (float64, error) {
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0, fmt.Errorf("table: line %d: bad value %q: %w", line, cell, err)
	}
	if !(v >= 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("table: line %d: value %q is not a finite non-negative number", line, cell)
	}
	return v, nil
}

// ReadAggregateCSV parses a two-column CSV with header [unit, <name>].
// Values must be finite and non-negative.
func ReadAggregateCSV(r io.Reader) (*Aggregate, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: reading header: %w", err)
	}
	attr := header[1]
	var keys []string
	var values []float64
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: line %d: %w", line, err)
		}
		v, err := parseValue(line, rec[1])
		if err != nil {
			return nil, err
		}
		keys = append(keys, rec[0])
		values = append(values, v)
	}
	return NewAggregate(attr, keys, values)
}

// Crosswalk is a disaggregation matrix with named source and target
// units — the in-memory form of a crosswalk relationship file (§3.3).
type Crosswalk struct {
	Attribute  string
	SourceKeys []string
	TargetKeys []string
	DM         *sparse.CSR
	srcIdx     map[string]int
	tgtIdx     map[string]int
}

// NewCrosswalk builds a crosswalk from triplets (srcKey, tgtKey, value).
// Unit key universes are inferred from the triplets in first-seen order
// unless explicit key lists are given.
func NewCrosswalk(attribute string, srcKeys, tgtKeys []string, triplets []Triplet) (*Crosswalk, error) {
	cw := &Crosswalk{Attribute: attribute}
	cw.srcIdx = make(map[string]int)
	cw.tgtIdx = make(map[string]int)
	addSrc := func(k string) int {
		if i, ok := cw.srcIdx[k]; ok {
			return i
		}
		cw.srcIdx[k] = len(cw.SourceKeys)
		cw.SourceKeys = append(cw.SourceKeys, k)
		return len(cw.SourceKeys) - 1
	}
	addTgt := func(k string) int {
		if i, ok := cw.tgtIdx[k]; ok {
			return i
		}
		cw.tgtIdx[k] = len(cw.TargetKeys)
		cw.TargetKeys = append(cw.TargetKeys, k)
		return len(cw.TargetKeys) - 1
	}
	for _, k := range srcKeys {
		addSrc(k)
	}
	for _, k := range tgtKeys {
		addTgt(k)
	}
	type cell struct {
		i, j int
		v    float64
	}
	cells := make([]cell, 0, len(triplets))
	for _, t := range triplets {
		i := addSrc(t.Source)
		j := addTgt(t.Target)
		cells = append(cells, cell{i, j, t.Value})
	}
	coo := sparse.NewCOO(len(cw.SourceKeys), len(cw.TargetKeys))
	for _, c := range cells {
		coo.Add(c.i, c.j, c.v)
	}
	cw.DM = coo.ToCSR()
	return cw, nil
}

// Triplet is one crosswalk file row.
type Triplet struct {
	Source, Target string
	Value          float64
}

// SourceIndex returns the row index of a source key, or -1.
func (c *Crosswalk) SourceIndex(key string) int {
	i, ok := c.srcIdx[key]
	if !ok {
		return -1
	}
	return i
}

// TargetIndex returns the column index of a target key, or -1.
func (c *Crosswalk) TargetIndex(key string) int {
	j, ok := c.tgtIdx[key]
	if !ok {
		return -1
	}
	return j
}

// ReorderTo returns a copy of the disaggregation matrix with rows and
// columns permuted to the given key orders. Requested keys the
// crosswalk has never seen become zero rows/columns (a reference simply
// has no mass there); dropping a *populated* target column is an error,
// because that would silently lose mass.
func (c *Crosswalk) ReorderTo(srcKeys, tgtKeys []string) (*sparse.CSR, error) {
	rowOf := make([]int, len(srcKeys))
	for i, k := range srcKeys {
		rowOf[i] = c.SourceIndex(k) // -1 ⇒ zero row
	}
	colMap := make(map[int]int, len(tgtKeys)) // old col -> new col
	for j, k := range tgtKeys {
		if cc := c.TargetIndex(k); cc >= 0 {
			colMap[cc] = j
		}
	}
	coo := sparse.NewCOO(len(srcKeys), len(tgtKeys))
	for newRow, oldRow := range rowOf {
		if oldRow < 0 {
			continue
		}
		cols, vals := c.DM.Row(oldRow)
		for k, oldCol := range cols {
			if newCol, ok := colMap[oldCol]; ok {
				coo.Add(newRow, newCol, vals[k])
			} else {
				return nil, fmt.Errorf("table: crosswalk %q references target unit %q missing from requested order",
					c.Attribute, c.TargetKeys[oldCol])
			}
		}
	}
	return coo.ToCSR(), nil
}

// WriteCSV emits the crosswalk as CSV rows [source, target, value] with
// a header, in row-major sparse order.
func (c *Crosswalk) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"source", "target", c.Attribute}); err != nil {
		return err
	}
	for i, sk := range c.SourceKeys {
		cols, vals := c.DM.Row(i)
		for k, j := range cols {
			rec := []string{sk, c.TargetKeys[j], strconv.FormatFloat(vals[k], 'g', -1, 64)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCrosswalkCSV parses a three-column CSV with header
// [source, target, <name>]. Values must be finite and non-negative.
func ReadCrosswalkCSV(r io.Reader) (*Crosswalk, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: reading header: %w", err)
	}
	attr := header[2]
	var triplets []Triplet
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: line %d: %w", line, err)
		}
		v, err := parseValue(line, rec[2])
		if err != nil {
			return nil, err
		}
		triplets = append(triplets, Triplet{Source: rec[0], Target: rec[1], Value: v})
	}
	return NewCrosswalk(attr, nil, nil, triplets)
}

// Inconsistency is one unit whose published aggregate disagrees with a
// crosswalk's row sum.
type Inconsistency struct {
	Unit      string
	Published float64
	RowSum    float64
}

// CheckConsistency compares a published aggregate table against a
// crosswalk's source-level row sums — the accuracy question §4.4.1
// raises about real reference data ("without the raw data ... the
// accuracy of these aggregates is unknown"). Units are matched by key;
// units present in only one input are reported with the other side as
// 0. relTol is the tolerated relative difference (e.g. 0.01 = 1%).
func CheckConsistency(agg *Aggregate, cw *Crosswalk, relTol float64) []Inconsistency {
	rowSums := cw.DM.RowSums()
	var out []Inconsistency
	seen := make(map[string]bool, len(cw.SourceKeys))
	for i, key := range cw.SourceKeys {
		seen[key] = true
		pub, _ := agg.Value(key)
		if !within(pub, rowSums[i], relTol) {
			out = append(out, Inconsistency{Unit: key, Published: pub, RowSum: rowSums[i]})
		}
	}
	for i, key := range agg.Keys {
		if !seen[key] && !within(agg.Values[i], 0, relTol) {
			out = append(out, Inconsistency{Unit: key, Published: agg.Values[i], RowSum: 0})
		}
	}
	return out
}

func within(a, b, relTol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > scale {
		scale = b
	}
	if scale < 0 {
		scale = -scale
	}
	return d <= relTol*scale || d == 0
}

// SortedKeys returns a lexicographically sorted copy of keys — a
// convenience for building deterministic unit orders from map-shaped
// inputs.
func SortedKeys(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	return out
}
