package partition_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"geoalign/internal/geom"
	"geoalign/internal/partition"
	"geoalign/internal/sparse"
	"geoalign/internal/synth"
)

// csrBits hashes a CSR's shape, IndPtr, ColIdx and Val bit patterns.
func csrBits(m *sparse.CSR) string {
	h := sha256.New()
	var w [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(w[:], u)
		h.Write(w[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, p := range m.IndPtr {
		put(uint64(p))
	}
	for _, c := range m.ColIdx {
		put(uint64(c))
	}
	for _, v := range m.Val {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func tigerUnits(t *testing.T, units int, seed int64) []geom.MultiPolygon {
	t.Helper()
	var out []geom.MultiPolygon
	err := synth.TigerLayer(synth.TigerConfig{Units: units, Seed: seed}, func(_ int, _ string, parts geom.MultiPolygon) error {
		out = append(out, parts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTiledMeasureDMBitsPinned pins the exact crosswalk bits of two
// layer pairs — the multi-part jagged fixture, at a size where some
// unit pairs sum three part pairs whose total depends on the order the
// join visits them, and a seed-fixed TIGER lattice pair — over explicit
// and budget-sized grids, one and four workers, with and without
// spilling. A change to the reference-point rule, the tile-order
// merge, the join's visiting order or chooseGrid's choice shows up as
// a different hash or grid.
func TestTiledMeasureDMBitsPinned(t *testing.T) {
	jagSrc, jagTgt := partition.TiledTestLayers(t, 47, 20, 10)
	layers := []struct {
		name     string
		src, tgt []geom.MultiPolygon
	}{
		{"jagged-multipart", jagSrc, jagTgt},
		{"tiger", tigerUnits(t, 2000, 11), tigerUnits(t, 120, 12)},
	}
	// want[layer][grid] is the hash for that resolved tile grid;
	// autoGrid[layer][spill][workers] is the grid chooseGrid picks.
	// The TIGER units are single-part, so no unit pair sums more than
	// one part pair and every grid gives the same bits.
	want := map[string]map[string]string{
		"jagged-multipart": {
			"1x1": "5d8f40d310c726af", "3x2": "5d8f40d310c726af",
			"1x2": "5d8f40d310c726af", "2x3": "5d8f40d310c726af",
			"5x6": "da0459d3fcb3fe9e",
		},
		"tiger": {
			"1x1": "c5632eb040117e42", "3x2": "c5632eb040117e42",
			"1x2": "c5632eb040117e42", "2x3": "c5632eb040117e42",
			"8x9": "c5632eb040117e42",
		},
	}
	autoGrid := map[string]map[bool]map[int]string{
		"jagged-multipart": {false: {1: "1x2", 4: "2x3"}, true: {1: "5x6", 4: "5x6"}},
		"tiger":            {false: {1: "1x2", 4: "2x3"}, true: {1: "8x9", 4: "8x9"}},
	}
	for _, l := range layers {
		raw := partition.RawBytes(t, l.src, l.tgt)
		for _, grid := range []string{"1x1", "3x2", "auto"} {
			for _, workers := range []int{1, 4} {
				for _, spill := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/workers=%d/spill=%v", l.name, grid, workers, spill)
					opt := partition.TiledOptions{Workers: workers, SpillDir: t.TempDir()}
					switch grid {
					case "1x1":
						opt.TileCols, opt.TileRows = 1, 1
					case "3x2":
						opt.TileCols, opt.TileRows = 3, 2
					}
					switch {
					case spill:
						opt.MemBudget = 16 << 10
					case grid == "auto":
						// Four times the geometry estimate: chooseGrid
						// still splits the layers (per-tile share is
						// raw/workers), but resident buckets never pass
						// the half-budget spill threshold.
						opt.MemBudget = 4 * raw
					}
					got, stats, err := partition.TiledMeasureDM(partition.SliceStream(l.src), partition.SliceStream(l.tgt), opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if spill != (stats.SpilledBytes > 0) {
						t.Fatalf("%s: spilled %d bytes", name, stats.SpilledBytes)
					}
					dims := fmt.Sprintf("%dx%d", stats.TileCols, stats.TileRows)
					if w := autoGrid[l.name][spill][workers]; grid == "auto" && dims != w {
						t.Errorf("%s: chooseGrid resolved %s, pinned %s", name, dims, w)
					}
					h := csrBits(got)
					if w, ok := want[l.name][dims]; !ok {
						t.Errorf("%s: no pinned hash for grid %s (got %s)", name, dims, h)
					} else if h != w {
						t.Errorf("%s: grid %s crosswalk bits %s, pinned %s", name, dims, h, w)
					}
				}
			}
		}
	}
}
