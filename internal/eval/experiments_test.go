package eval

import (
	"math"
	"strings"
	"testing"

	"geoalign/internal/synth"
)

// testCatalog builds a small but structurally faithful US-style catalog
// once for the experiment tests.
func testCatalog(t testing.TB, kind synth.CatalogKind) *synth.Catalog {
	t.Helper()
	var cfg synth.Config
	var name string
	if kind == synth.NewYork {
		cfg = synth.NYConfig(101, 0.05) // ~90 source units
		name = "New York State"
	} else {
		cfg = synth.USConfig(101, 0.01) // ~302 source units
		name = "United States"
	}
	u, err := synth.BuildUniverse(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := synth.BuildCatalog(kind, u, 40000)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestCrossValidateUS(t *testing.T) {
	cat := testCatalog(t, synth.UnitedStates)
	rep, err := CrossValidate(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if math.IsNaN(row.GeoAlign) || row.GeoAlign < 0 {
			t.Errorf("%s: GeoAlign NRMSE = %v", row.Dataset, row.GeoAlign)
		}
		// Weights recorded for all 9 references.
		if len(row.Weights) != 9 {
			t.Errorf("%s: %d weights", row.Dataset, len(row.Weights))
		}
	}
	// Protocol skips: dasymetric-by-population is not evaluated on the
	// population dataset; areal weighting not on the area dataset.
	for _, row := range rep.Rows {
		if row.Dataset == "Population" && !math.IsNaN(row.Dasymetric["Population"]) {
			t.Error("population dasymetric evaluated on its own reference")
		}
		if row.Dataset == AreaDatasetName && !math.IsNaN(row.ArealWeighting) {
			t.Error("areal weighting evaluated on the area dataset")
		}
	}
	// Shape check: GeoAlign at least as accurate as the best dasymetric
	// baseline on a clear majority of datasets (the paper's headline).
	wins, comparisons := rep.WinLossSummary(0.10)
	if comparisons < 8 {
		t.Fatalf("only %d comparisons", comparisons)
	}
	if float64(wins) < 0.7*float64(comparisons) {
		t.Errorf("GeoAlign within 10%% of best dasymetric on only %d/%d datasets", wins, comparisons)
	}
	// Areal weighting must be far worse on average (paper: >50x for US;
	// we require an order of magnitude on the synthetic stand-in).
	if f := rep.ArealWeightingFactor(); !(f > 3) {
		t.Errorf("areal weighting factor = %v, want >> 1", f)
	}
	if !strings.Contains(rep.Table(), "Figure 5") {
		t.Error("Table missing header")
	}
}

func TestCrossValidateNY(t *testing.T) {
	cat := testCatalog(t, synth.NewYork)
	rep, err := CrossValidate(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rep.Rows))
	}
	// NY has no Area dataset; areal weighting must still be evaluated
	// via the geometric area DM.
	validAW := 0
	for _, row := range rep.Rows {
		if !math.IsNaN(row.ArealWeighting) {
			validAW++
		}
	}
	if validAW != 8 {
		t.Errorf("areal weighting evaluated on %d/8 NY datasets", validAW)
	}
}

func TestNoiseExperimentStability(t *testing.T) {
	cat := testCatalog(t, synth.UnitedStates)
	rep, err := NoiseExperiment(cat, []float64{5, 50}, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 10*2 {
		t.Fatalf("cells = %d, want 20", len(rep.Cells))
	}
	// Robustness shape: mean deviation stays near 1 even at 50% noise.
	m5 := rep.MeanDeviationAt(5)
	m50 := rep.MeanDeviationAt(50)
	if !(m5 > 0.5 && m5 < 1.5) {
		t.Errorf("mean deviation at 5%% noise = %v, want ≈ 1", m5)
	}
	if !(m50 > 0.4 && m50 < 2.5) {
		t.Errorf("mean deviation at 50%% noise = %v, want near 1", m50)
	}
	if math.IsNaN(rep.MeanDeviationAt(99)) == false {
		t.Error("unknown level should be NaN")
	}
	if !strings.Contains(rep.Table(), "Figure 7") {
		t.Error("Table missing header")
	}
}

func TestSelectionExperimentShapes(t *testing.T) {
	cat := testCatalog(t, synth.UnitedStates)
	rep, err := SelectionExperiment(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Dropping the least-related references must be nearly free on
	// average (paper: "almost identical to using all references").
	var worstLeastPenalty float64
	var meanPenalty float64
	count := 0
	for _, row := range rep.Rows {
		all := row.NRMSE["using all references"]
		least1 := row.NRMSE["leave 1 least related out"]
		if math.IsNaN(all) || math.IsNaN(least1) || all == 0 {
			continue
		}
		pen := least1/all - 1
		meanPenalty += pen
		if pen > worstLeastPenalty {
			worstLeastPenalty = pen
		}
		count++
	}
	meanPenalty /= float64(count)
	if meanPenalty > 0.15 {
		t.Errorf("mean penalty for dropping least-related reference = %.2f, want ≈ 0", meanPenalty)
	}
	// Ranked reference lists are recorded.
	for _, row := range rep.Rows {
		if len(row.MostRelated) != 9 {
			t.Errorf("%s: %d ranked references", row.Dataset, len(row.MostRelated))
		}
	}
	if !strings.Contains(rep.Table(), "Figure 8") {
		t.Error("Table missing header")
	}
}

func TestRuntimeExperimentLinear(t *testing.T) {
	specs := PaperRuntimeSpecs(0.05) // ~1512 source units at the top end
	rep, err := RuntimeExperiment(specs, 5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 6 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Seconds <= 0 {
			t.Errorf("%s: runtime %v", p.Universe, p.Seconds)
		}
	}
	// Monotone-ish growth and a decent linear fit vs source units.
	if rep.Points[5].Seconds < rep.Points[0].Seconds {
		t.Errorf("US slower than NY expected: %v vs %v", rep.Points[5].Seconds, rep.Points[0].Seconds)
	}
	if rep.SourceR2 < 0.8 {
		t.Errorf("runtime vs source units R² = %v, want linear-ish", rep.SourceR2)
	}
	if !strings.Contains(rep.Table(), "Figure 6") {
		t.Error("Table missing header")
	}
}

func TestPaperRuntimeSpecsScaling(t *testing.T) {
	full := PaperRuntimeSpecs(1)
	if full[5].SourceUnits != 30238 || full[5].TargetUnits != 3142 {
		t.Errorf("full-scale US = %+v", full[5])
	}
	small := PaperRuntimeSpecs(0.001)
	for _, s := range small {
		if s.SourceUnits < 10 || s.TargetUnits < 2 {
			t.Errorf("spec below floor: %+v", s)
		}
	}
}

func TestRuntimeBreakdown(t *testing.T) {
	bd, err := RuntimeBreakdown(2000, 200, 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total <= 0 || bd.WeightLearning < 0 || bd.Disaggregation < 0 {
		t.Errorf("breakdown = %+v", bd)
	}
	if !strings.Contains(bd.String(), "stage breakdown") {
		t.Errorf("String = %q", bd.String())
	}
}

func TestRuntimeStability(t *testing.T) {
	cat := testCatalog(t, synth.UnitedStates)
	st, err := RuntimeStability(cat, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Seconds) != 10 {
		t.Fatalf("timed %d datasets", len(st.Seconds))
	}
	// §4.3: stable across datasets — allow a generous spread at this
	// small scale, but catch order-of-magnitude instability.
	if st.MaxOverMin > 25 {
		t.Errorf("runtime spread max/min = %v", st.MaxOverMin)
	}
}
