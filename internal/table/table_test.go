package table

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestNewAggregateValidation(t *testing.T) {
	if _, err := NewAggregate("x", []string{"a"}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewAggregate("x", []string{"a", "a"}, []float64{1, 2}); err == nil {
		t.Error("duplicate keys accepted")
	}
}

func TestAggregateAccessors(t *testing.T) {
	a, err := NewAggregate("steam", []string{"10001", "10002", "10003"}, []float64{5946, 3519, 1200})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
	if v, ok := a.Value("10002"); !ok || v != 3519 {
		t.Errorf("Value = %v %v", v, ok)
	}
	if _, ok := a.Value("99999"); ok {
		t.Error("missing key found")
	}
	if a.Index("10003") != 2 || a.Index("nope") != -1 {
		t.Error("Index misbehaves")
	}
	if a.Total() != 5946+3519+1200 {
		t.Errorf("Total = %v", a.Total())
	}
}

func TestAggregateReorder(t *testing.T) {
	a, _ := NewAggregate("x", []string{"a", "b", "c"}, []float64{1, 2, 3})
	got, err := a.Reorder([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 1 {
		t.Errorf("Reorder = %v", got)
	}
	if _, err := a.Reorder([]string{"zzz"}); err == nil {
		t.Error("missing key accepted")
	}
}

func TestAggregateCSVRoundTrip(t *testing.T) {
	a, _ := NewAggregate("per capita income", []string{"New York", "Westchester"}, []float64{64894, 81946.5})
	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAggregateCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Attribute != a.Attribute {
		t.Errorf("attribute = %q", back.Attribute)
	}
	for i, k := range a.Keys {
		if back.Keys[i] != k || back.Values[i] != a.Values[i] {
			t.Errorf("row %d: got (%q,%v)", i, back.Keys[i], back.Values[i])
		}
	}
}

func TestReadAggregateCSVErrors(t *testing.T) {
	if _, err := ReadAggregateCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadAggregateCSV(strings.NewReader("unit,x\na,notanumber\n")); err == nil {
		t.Error("bad value accepted")
	}
	if _, err := ReadAggregateCSV(strings.NewReader("unit,x\na,1,extra\n")); err == nil {
		t.Error("wrong column count accepted")
	}
}

func TestNewCrosswalk(t *testing.T) {
	cw, err := NewCrosswalk("population", nil, nil, []Triplet{
		{"10001", "New York", 21102},
		{"10003", "New York", 56024},
		{"10001", "Westchester", 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cw.SourceKeys) != 2 || len(cw.TargetKeys) != 2 {
		t.Fatalf("keys: %v / %v", cw.SourceKeys, cw.TargetKeys)
	}
	if got := cw.DM.At(cw.SourceIndex("10001"), cw.TargetIndex("New York")); got != 21102 {
		t.Errorf("DM entry = %v", got)
	}
	if cw.SourceIndex("nope") != -1 || cw.TargetIndex("nope") != -1 {
		t.Error("missing keys found")
	}
}

func TestCrosswalkExplicitKeyOrder(t *testing.T) {
	cw, err := NewCrosswalk("x", []string{"s1", "s2", "s3"}, []string{"t1", "t2"}, []Triplet{
		{"s2", "t2", 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cw.DM.Rows != 3 || cw.DM.Cols != 2 {
		t.Fatalf("DM is %dx%d", cw.DM.Rows, cw.DM.Cols)
	}
	if cw.DM.At(1, 1) != 5 {
		t.Errorf("entry = %v", cw.DM.At(1, 1))
	}
}

func TestCrosswalkDuplicateTripletsSummed(t *testing.T) {
	cw, _ := NewCrosswalk("x", nil, nil, []Triplet{
		{"s", "t", 2}, {"s", "t", 3},
	})
	if got := cw.DM.At(0, 0); got != 5 {
		t.Errorf("summed entry = %v", got)
	}
}

func TestCrosswalkReorderTo(t *testing.T) {
	cw, _ := NewCrosswalk("x", nil, nil, []Triplet{
		{"s1", "t1", 1}, {"s1", "t2", 2}, {"s2", "t2", 3},
	})
	dm, err := cw.ReorderTo([]string{"s2", "s1"}, []string{"t2", "t1"})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{3, 0}, {2, 1}}
	got := dm.ToDense()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("dm[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// Unseen keys become zero rows/columns.
	loose, err := cw.ReorderTo([]string{"s1", "never-seen"}, []string{"t1", "t2", "also-new"})
	if err != nil {
		t.Fatal(err)
	}
	if loose.At(1, 0) != 0 || loose.At(0, 2) != 0 {
		t.Error("unseen keys not zero")
	}
	if loose.At(0, 0) != 1 || loose.At(0, 1) != 2 {
		t.Errorf("known entries wrong: %v", loose.ToDense())
	}
	// Dropping a populated target column would lose mass: error.
	if _, err := cw.ReorderTo([]string{"s1"}, []string{"t1"}); err == nil {
		t.Error("dropped populated target column accepted silently")
	}
}

func TestCrosswalkCSVRoundTrip(t *testing.T) {
	cw, _ := NewCrosswalk("accidents", nil, nil, []Triplet{
		{"10001", "New York", 2}, {"10003", "Westchester", 1.5},
	})
	var buf bytes.Buffer
	if err := cw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCrosswalkCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Attribute != "accidents" {
		t.Errorf("attribute = %q", back.Attribute)
	}
	dm, err := back.ReorderTo(cw.SourceKeys, cw.TargetKeys)
	if err != nil {
		t.Fatal(err)
	}
	orig := cw.DM.ToDense()
	got := dm.ToDense()
	for i := range orig {
		for j := range orig[i] {
			if math.Abs(orig[i][j]-got[i][j]) > 1e-12 {
				t.Errorf("dm[%d][%d] = %v, want %v", i, j, got[i][j], orig[i][j])
			}
		}
	}
}

func TestReadCrosswalkCSVErrors(t *testing.T) {
	if _, err := ReadCrosswalkCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCrosswalkCSV(strings.NewReader("source,target,x\na,b,bad\n")); err == nil {
		t.Error("bad value accepted")
	}
}

func TestSortedKeys(t *testing.T) {
	in := []string{"c", "a", "b"}
	out := SortedKeys(in)
	if out[0] != "a" || out[1] != "b" || out[2] != "c" {
		t.Errorf("SortedKeys = %v", out)
	}
	if in[0] != "c" {
		t.Error("input mutated")
	}
}

func TestCheckConsistency(t *testing.T) {
	agg, _ := NewAggregate("pop", []string{"a", "b", "c"}, []float64{100, 50, 7})
	cw, _ := NewCrosswalk("pop", nil, nil, []Triplet{
		{"a", "t1", 60}, {"a", "t2", 40}, // consistent: 100
		{"b", "t1", 45}, // off by 10%
	})
	// Tight tolerance: b mismatches, and c (published but absent from
	// the crosswalk) is reported too.
	bad := CheckConsistency(agg, cw, 0.01)
	if len(bad) != 2 {
		t.Fatalf("inconsistencies = %+v, want 2", bad)
	}
	units := map[string]bool{}
	for _, x := range bad {
		units[x.Unit] = true
	}
	if !units["b"] || !units["c"] {
		t.Errorf("wrong units flagged: %+v", bad)
	}
	// Loose tolerance accepts b but still flags c.
	loose := CheckConsistency(agg, cw, 0.2)
	if len(loose) != 1 || loose[0].Unit != "c" {
		t.Errorf("loose = %+v", loose)
	}
	// A crosswalk unit missing from the table is a mismatch vs 0.
	agg2, _ := NewAggregate("pop", []string{"a"}, []float64{100})
	bad2 := CheckConsistency(agg2, cw, 0.01)
	found := false
	for _, x := range bad2 {
		if x.Unit == "b" && x.Published == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing table unit not flagged: %+v", bad2)
	}
}

// TestReadAggregateCSVRejectsNonFinite: NaN, ±Inf and negative values
// are refused, and the error names the offending line.
func TestReadAggregateCSVRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "-1", "-0.5"} {
		src := "unit,x\na,1\nb," + bad + "\n"
		_, err := ReadAggregateCSV(strings.NewReader(src))
		if err == nil {
			t.Fatalf("value %q accepted", bad)
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("value %q: error %q does not name line 3", bad, err)
		}
	}
	if _, err := ReadAggregateCSV(strings.NewReader("unit,x\na,0\nb,-0\nc,2.5\n")); err != nil {
		t.Fatalf("finite non-negative values rejected: %v", err)
	}
}

// TestReadCrosswalkCSVRejectsNonFinite mirrors the aggregate test for
// crosswalk relationship files.
func TestReadCrosswalkCSVRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "-1", "-0.5"} {
		src := "source,target,x\na,b,1\nc,d," + bad + "\n"
		_, err := ReadCrosswalkCSV(strings.NewReader(src))
		if err == nil {
			t.Fatalf("value %q accepted", bad)
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("value %q: error %q does not name line 3", bad, err)
		}
	}
	if _, err := ReadCrosswalkCSV(strings.NewReader("source,target,x\na,b,0\nc,d,1e300\n")); err != nil {
		t.Fatalf("finite non-negative values rejected: %v", err)
	}
}
