package partition

import (
	"math/rand"
	"testing"

	"geoalign/internal/geom"
)

// TiledTestLayers exposes the multi-part jagged fixture of the tiled
// tests to the external-package tests in this directory.
func TiledTestLayers(t *testing.T, seed int64, gSrc, gTgt int) (src, tgt []geom.MultiPolygon) {
	src, tgt, _, _ = tiledTestLayers(t, seed, gSrc, gTgt)
	return src, tgt
}

// RawBytes is the sizing pass's geometry-size estimate of a layer pair,
// the figure chooseGrid divides the budget into.
func RawBytes(t *testing.T, src, tgt []geom.MultiPolygon) int64 {
	t.Helper()
	var total int64
	for _, layer := range [][]geom.MultiPolygon{src, tgt} {
		info, err := scanInfo(SliceStream(layer))
		if err != nil {
			t.Fatal(err)
		}
		total += info.rawBytes()
	}
	return total
}

// JaggedLayer exposes the non-convex star-polygon layer of the
// equivalence tests to the external-package tests in this directory.
func JaggedLayer(rng *rand.Rand, g int, span float64, verts int) []geom.Polygon {
	return jaggedLayer(rng, g, span, verts)
}

// SetTileLoadHook installs fn to run before each tile layer load of
// TiledMeasureDM (an error it returns fails that load) and returns a
// function that removes it.
func SetTileLoadHook(fn func(layer, t int) error) (restore func()) {
	tileLoadHook = fn
	return func() { tileLoadHook = nil }
}
