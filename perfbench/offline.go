package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"geoalign"
	"geoalign/internal/eval"
	"geoalign/internal/geom"
	"geoalign/internal/partition"
	"geoalign/internal/sparse"
	"geoalign/internal/synth"
)

// Offline-build sizing. The crosswalk joins a zip-like lattice layer to
// a county-like one (20 sources per target) under a bucket budget small
// enough that every build spills, on one worker: on a shared 2-vCPU
// host a two-worker build's time follows how both vCPUs happen to be
// scheduled more than the join's work. The batch is 64 attributes over
// the served engine. Cross-validation runs the paper's
// leave-one-dataset-out protocol (Fig. 5b) on a reduced US catalog, the
// one fixed input: accuracy is scored on one evaluation set, as the
// paper scores it on one set of real datasets, so nrmse_mean moves only
// when the method does.
const (
	xwalkSources   = 30000
	xwalkTargets   = 1500
	xwalkMemBudget = 1 << 20
	xwalkWorkers   = 1
	batchAttrs     = 64
	cvSeed         = 42
	cvScale        = 0.05
	cvPointBudget  = 100000
	universeArea   = 100 * 100 // synth.TigerLayer's default bounds
)

// timedStream is the benchmark's TileStream: an in-memory layer whose
// Scan calls are timed, so the partition layer's own work is measured
// apart from the geometry source.
type timedStream struct {
	parts partition.SliceStream
	spent *time.Duration
}

func (s timedStream) Scan(fn func(geom.MultiPolygon) error) error {
	t0 := time.Now()
	err := s.parts.Scan(fn)
	*s.spent += time.Since(t0)
	return err
}

func tigerLayer(units int, seed int64) ([]geom.MultiPolygon, error) {
	var out []geom.MultiPolygon
	err := synth.TigerLayer(synth.TigerConfig{Units: units, Seed: seed}, func(_ int, _ string, parts geom.MultiPolygon) error {
		out = append(out, parts)
		return nil
	})
	return out, err
}

type offlineResult struct {
	buildS     []float64 // wall seconds per tiled crosswalk build
	buildCPU   []float64 // process CPU seconds per tiled crosswalk build
	scanS      []float64 // seconds inside the layers' Scan per build
	stats      partition.TiledStats
	xwalkMass  float64
	nnz        int
	batchRate  []float64 // attributes per second per AlignAll call
	batchObjs  [][]float64
	batchRes   []*geoalign.Result
	cvS        []float64
	nrmseMean  float64
	operations int
}

// offline holds the offline stage's inputs. Its work runs in parts
// spread over the run, between the load phases, so each figure's
// repetitions sample the host's speed over the whole run rather than
// over one stretch of it.
type offline struct {
	src, tgt []geom.MultiPolygon
	cat      *synth.Catalog
	al       *geoalign.Aligner
	spillDir string
	cal      *calibrator
	out      offlineResult
}

func newOffline(seed int64, al *geoalign.Aligner, spillDir string, cal *calibrator) (*offline, error) {
	o := &offline{al: al, spillDir: spillDir, cal: cal}
	var err error
	if o.src, err = tigerLayer(xwalkSources, 2*seed+1); err != nil {
		return nil, err
	}
	if o.tgt, err = tigerLayer(xwalkTargets, 2*seed+2); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 7))
	o.out.batchObjs = make([][]float64, batchAttrs)
	for a := range o.out.batchObjs {
		obj := make([]float64, al.SourceUnits())
		for i := range obj {
			obj[i] = rng.Float64() * 1e4
		}
		o.out.batchObjs[a] = obj
	}
	u, err := synth.BuildUniverse("United States", synth.USConfig(cvSeed, cvScale))
	if err != nil {
		return nil, err
	}
	if o.cat, err = synth.BuildCatalog(synth.UnitedStates, u, cvPointBudget); err != nil {
		return nil, err
	}
	return o, nil
}

// part times the crosswalk build, the batch alignment and the
// cross-validation in turn, from a collected heap each, until budget
// is used and at least once each.
func (o *offline) part(budget time.Duration) error {
	o.cal.pause()
	defer o.cal.resume()
	out := &o.out
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		var spent time.Duration
		var dm *sparse.CSR
		wall, cpu, err := timeReps(1, 0, o.cal, func() error {
			var err error
			dm, out.stats, err = partition.TiledMeasureDM(
				timedStream{partition.SliceStream(o.src), &spent},
				timedStream{partition.SliceStream(o.tgt), &spent},
				partition.TiledOptions{MemBudget: xwalkMemBudget, SpillDir: o.spillDir, Workers: xwalkWorkers})
			return err
		})
		if err != nil {
			return fmt.Errorf("tiled crosswalk build: %w", err)
		}
		if out.nnz != 0 && dm.NNZ() != out.nnz {
			return fmt.Errorf("tiled crosswalk build: %d entries, an earlier build gave %d", dm.NNZ(), out.nnz)
		}
		out.nnz = dm.NNZ()
		out.buildS = append(out.buildS, wall...)
		out.buildCPU = append(out.buildCPU, cpu...)
		out.scanS = append(out.scanS, spent.Seconds())
		out.xwalkMass = 0
		for _, v := range dm.Val {
			out.xwalkMass += v
		}

		wall, _, err = timeReps(1, 0, o.cal, func() error {
			var err error
			out.batchRes, err = o.al.AlignAll(out.batchObjs)
			return err
		})
		if err != nil {
			return fmt.Errorf("batch align: %w", err)
		}
		out.batchRate = append(out.batchRate, batchAttrs/wall[0])

		var report *eval.CVReport
		wall, _, err = timeReps(1, 0, o.cal, func() error {
			var err error
			report, err = eval.CrossValidate(o.cat)
			return err
		})
		if err != nil {
			return fmt.Errorf("cross-validation: %w", err)
		}
		out.cvS = append(out.cvS, wall...)
		var nrmse []float64
		for _, row := range report.Rows {
			if !math.IsNaN(row.GeoAlign) {
				nrmse = append(nrmse, row.GeoAlign)
			}
		}
		out.nrmseMean = mean(nrmse)
		out.operations += 3
	}
	return nil
}
