package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"geoalign/internal/core"
	"geoalign/internal/synth"
)

// RuntimePoint is one universe's measurement in the Figure 6 sweep.
type RuntimePoint struct {
	Universe    string
	SourceUnits int
	TargetUnits int
	Seconds     float64 // mean wall time of one GeoAlign run
	Trials      int
}

// RuntimeReport is the Figure 6 experiment output.
type RuntimeReport struct {
	Points []RuntimePoint
	// Linear-fit diagnostics for runtime vs source units and vs target
	// units (the paper claims linear scaling in both).
	SourceSlope, SourceR2 float64
	TargetSlope, TargetR2 float64
}

// RuntimeSpec describes one universe in the sweep.
type RuntimeSpec struct {
	Name        string
	SourceUnits int
	TargetUnits int
}

// PaperRuntimeSpecs returns the six universes of §4.3 at their real
// unit counts, scaled by the given factor (1.0 = full scale:
// 30238 zips × 3142 counties for the US).
func PaperRuntimeSpecs(scale float64) []RuntimeSpec {
	full := []RuntimeSpec{
		{"New York State", 1794, 62},
		{"Mid-Atlantic States", 4990, 150},
		{"Northeast States", 7022, 217},
		{"Eastern Time Zone States", 12486, 1052},
		{"Non-West States", 22628, 2693},
		{"United States", 30238, 3142},
	}
	out := make([]RuntimeSpec, len(full))
	for i, s := range full {
		out[i] = RuntimeSpec{
			Name:        s.Name,
			SourceUnits: maxI(int(float64(s.SourceUnits)*scale), 10),
			TargetUnits: maxI(int(float64(s.TargetUnits)*scale), 2),
		}
	}
	return out
}

// RuntimeExperiment measures GeoAlign end-to-end wall time (weight
// learning + disaggregation + re-aggregation) on synthetic problems at
// each spec's unit counts, averaged over trials, with nrefs references
// — mirroring §4.3 where data preparation is excluded and only the
// algorithm is timed.
func RuntimeExperiment(specs []RuntimeSpec, nrefs, trials int, seed int64) (*RuntimeReport, error) {
	if nrefs <= 0 {
		nrefs = 7
	}
	if trials <= 0 {
		trials = 10
	}
	rng := rand.New(rand.NewSource(seed))
	report := &RuntimeReport{}
	for _, spec := range specs {
		p := synth.ScalingProblem(rng, spec.SourceUnits, spec.TargetUnits, nrefs)
		// Warm-up run outside the timed region.
		if _, err := core.Align(p, core.Options{}); err != nil {
			return nil, fmt.Errorf("eval: runtime warm-up for %q: %w", spec.Name, err)
		}
		start := time.Now()
		for t := 0; t < trials; t++ {
			if _, err := core.Align(p, core.Options{}); err != nil {
				return nil, fmt.Errorf("eval: runtime trial for %q: %w", spec.Name, err)
			}
		}
		mean := time.Since(start).Seconds() / float64(trials)
		report.Points = append(report.Points, RuntimePoint{
			Universe:    spec.Name,
			SourceUnits: spec.SourceUnits,
			TargetUnits: spec.TargetUnits,
			Seconds:     mean,
			Trials:      trials,
		})
	}
	xs := make([]float64, len(report.Points))
	xt := make([]float64, len(report.Points))
	y := make([]float64, len(report.Points))
	for i, pt := range report.Points {
		xs[i] = float64(pt.SourceUnits)
		xt[i] = float64(pt.TargetUnits)
		y[i] = pt.Seconds
	}
	report.SourceSlope, _, report.SourceR2 = LinearFit(xs, y)
	report.TargetSlope, _, report.TargetR2 = LinearFit(xt, y)
	return report, nil
}

// StageBreakdown times GeoAlign's three stages separately at one
// problem size, supporting the paper's §4.3 observation that the
// disaggregation-matrix construction dominates ("over 90%" in their
// SciPy implementation; the exact split depends on the linear-algebra
// substrate, which is why we measure rather than assume).
type StageBreakdown struct {
	SourceUnits, TargetUnits       int
	WeightLearning, Disaggregation float64 // seconds per run
	Total                          float64
}

// RuntimeBreakdown measures the stage split at the given size, averaged
// over trials. Disaggregation here covers steps 2+3 (building DM̂_o and
// re-aggregating), matching the paper's accounting.
func RuntimeBreakdown(ns, nt, nrefs, trials int, seed int64) (*StageBreakdown, error) {
	if trials <= 0 {
		trials = 10
	}
	rng := rand.New(rand.NewSource(seed))
	p := synth.ScalingProblem(rng, ns, nt, nrefs)
	if _, err := core.Align(p, core.Options{}); err != nil {
		return nil, err
	}
	out := &StageBreakdown{SourceUnits: ns, TargetUnits: nt}

	start := time.Now()
	for t := 0; t < trials; t++ {
		if _, err := core.LearnWeights(p); err != nil {
			return nil, err
		}
	}
	out.WeightLearning = time.Since(start).Seconds() / float64(trials)

	start = time.Now()
	for t := 0; t < trials; t++ {
		if _, err := core.Align(p, core.Options{}); err != nil {
			return nil, err
		}
	}
	out.Total = time.Since(start).Seconds() / float64(trials)
	out.Disaggregation = out.Total - out.WeightLearning
	if out.Disaggregation < 0 {
		out.Disaggregation = 0
	}
	return out, nil
}

// String renders the breakdown.
func (s *StageBreakdown) String() string {
	frac := 0.0
	if s.Total > 0 {
		frac = s.Disaggregation / s.Total * 100
	}
	return fmt.Sprintf(
		"stage breakdown at %d×%d: weight learning %.4fs, disaggregation+re-aggregation %.4fs (%.0f%% of %.4fs total)",
		s.SourceUnits, s.TargetUnits, s.WeightLearning, s.Disaggregation, frac, s.Total)
}

// BatchThroughputResult records the many-attribute workload comparison:
// realigning a batch of attributes over one fixed reference set, the
// pre-engine way (one full core.Align — including crosswalk
// precomputation — per attribute, serially) versus a shared
// core.Engine with AlignAll fanning the per-attribute solves across a
// worker pool.
type BatchThroughputResult struct {
	SourceUnits, TargetUnits int
	Attributes, Workers      int
	SerialSeconds            float64 // per-attribute core.Align loop
	BatchSeconds             float64 // shared engine, AlignAll
	Speedup                  float64 // SerialSeconds / BatchSeconds
}

// BatchThroughput measures both paths on a synthetic problem at the
// given size with nattrs objective attributes, averaged over trials.
// workers <= 0 uses one worker per CPU.
func BatchThroughput(ns, nt, nrefs, nattrs, workers, trials int, seed int64) (*BatchThroughputResult, error) {
	if nattrs <= 0 {
		nattrs = 32
	}
	if trials <= 0 {
		trials = 3
	}
	rng := rand.New(rand.NewSource(seed))
	p := synth.ScalingProblem(rng, ns, nt, nrefs)
	objectives := make([][]float64, nattrs)
	for a := range objectives {
		obj := make([]float64, ns)
		for i := range obj {
			obj[i] = rng.Float64() * 1e4
		}
		objectives[a] = obj
	}
	out := &BatchThroughputResult{SourceUnits: ns, TargetUnits: nt, Attributes: nattrs, Workers: workers}

	// Warm-up both paths outside the timed region.
	if _, err := core.Align(core.Problem{Objective: objectives[0], References: p.References}, core.Options{}); err != nil {
		return nil, fmt.Errorf("eval: batch warm-up: %w", err)
	}
	engine, err := core.NewEngine(p.References, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("eval: batch engine: %w", err)
	}
	if _, err := engine.AlignAll(objectives[:2], workers); err != nil {
		return nil, fmt.Errorf("eval: batch warm-up: %w", err)
	}

	start := time.Now()
	for t := 0; t < trials; t++ {
		for _, obj := range objectives {
			if _, err := core.Align(core.Problem{Objective: obj, References: p.References}, core.Options{}); err != nil {
				return nil, fmt.Errorf("eval: batch serial trial: %w", err)
			}
		}
	}
	out.SerialSeconds = time.Since(start).Seconds() / float64(trials)

	start = time.Now()
	for t := 0; t < trials; t++ {
		if _, err := engine.AlignAll(objectives, workers); err != nil {
			return nil, fmt.Errorf("eval: batch trial: %w", err)
		}
	}
	out.BatchSeconds = time.Since(start).Seconds() / float64(trials)
	if out.BatchSeconds > 0 {
		out.Speedup = out.SerialSeconds / out.BatchSeconds
	}
	return out, nil
}

// String renders the batch throughput comparison.
func (b *BatchThroughputResult) String() string {
	return fmt.Sprintf(
		"batch throughput at %d×%d, %d attributes: serial per-attribute %.4fs, shared engine (workers=%d) %.4fs, speedup %.2fx",
		b.SourceUnits, b.TargetUnits, b.Attributes, b.SerialSeconds, b.Workers, b.BatchSeconds, b.Speedup)
}

// StabilityResult records §4.3's other claim: "GeoAlign runtime is
// stable across experiments for the same universe" — i.e. re-running
// the crosswalk with a different objective attribute costs about the
// same, because every aggregate vector has size |U^s| and the sparse
// matrices share their shapes; only the non-zero counts differ.
type StabilityResult struct {
	Universe   string
	Seconds    map[string]float64 // dataset name -> mean wall time
	MaxOverMin float64
}

// RuntimeStability times one GeoAlign run per catalog dataset (each
// using the remaining datasets as references) and reports the spread.
func RuntimeStability(cat *synth.Catalog, trials int) (*StabilityResult, error) {
	if trials <= 0 {
		trials = 5
	}
	out := &StabilityResult{Universe: cat.Universe.Name, Seconds: make(map[string]float64)}
	mn, mx := 0.0, 0.0
	for _, test := range cat.Datasets {
		refs := referencesExcluding(cat, test.Name)
		p := core.Problem{Objective: test.Source, References: refs}
		if _, err := core.Align(p, core.Options{}); err != nil {
			return nil, err
		}
		start := time.Now()
		for t := 0; t < trials; t++ {
			if _, err := core.Align(p, core.Options{}); err != nil {
				return nil, err
			}
		}
		mean := time.Since(start).Seconds() / float64(trials)
		out.Seconds[test.Name] = mean
		if mn == 0 || mean < mn {
			mn = mean
		}
		if mean > mx {
			mx = mean
		}
	}
	if mn > 0 {
		out.MaxOverMin = mx / mn
	}
	return out, nil
}

// Table renders the Figure 6 series with the linearity diagnostics.
func (r *RuntimeReport) Table() string {
	var sb strings.Builder
	sb.WriteString("Figure 6 — GeoAlign runtime vs number of units\n")
	fmt.Fprintf(&sb, "%-28s %10s %10s %12s\n", "universe", "src units", "tgt units", "runtime(s)")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%-28s %10d %10d %12.6f\n", p.Universe, p.SourceUnits, p.TargetUnits, p.Seconds)
	}
	fmt.Fprintf(&sb, "linear fit vs source units: slope %.3e s/unit, R² %.4f\n", r.SourceSlope, r.SourceR2)
	fmt.Fprintf(&sb, "linear fit vs target units: slope %.3e s/unit, R² %.4f\n", r.TargetSlope, r.TargetR2)
	return sb.String()
}
