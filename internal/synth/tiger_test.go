package synth

import (
	"math"
	"testing"

	"geoalign/internal/geom"
)

// TestTigerLayerPartition checks the streamed lattice is an exact
// partition of the bounds: every polygon is simple (triangulable) with
// positive area, and the areas sum to the universe rectangle because
// neighbouring cells share their jittered boundaries.
func TestTigerLayerPartition(t *testing.T) {
	cfg := TigerConfig{Units: 400, Seed: 7}
	var total float64
	var count int
	err := TigerLayer(cfg, func(i int, name string, parts geom.MultiPolygon) error {
		if i != count {
			t.Fatalf("emit index %d, want %d", i, count)
		}
		if len(parts) != 1 {
			t.Fatalf("unit %d has %d parts", i, len(parts))
		}
		pg := parts[0]
		a := pg.Area()
		if a <= 0 {
			t.Fatalf("unit %d area %v", i, a)
		}
		if _, err := geom.Triangulate(pg); err != nil {
			t.Fatalf("unit %d not simple: %v", i, err)
		}
		total += a
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count < cfg.Units {
		t.Fatalf("emitted %d units, want ≥ %d", count, cfg.Units)
	}
	if math.Abs(total-100*100) > 1e-6 {
		t.Fatalf("areas sum to %v, want 10000 (not a partition)", total)
	}
}

// TestTigerLayerDeterminism pins re-scan stability: two runs with the
// same config yield bit-identical sequences (required for the tiled
// build's two passes), and a different seed yields a different layer.
func TestTigerLayerDeterminism(t *testing.T) {
	collect := func(seed int64) []geom.MultiPolygon {
		var out []geom.MultiPolygon
		err := TigerLayer(TigerConfig{Units: 60, Seed: seed}, func(i int, name string, parts geom.MultiPolygon) error {
			out = append(out, parts)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(3), collect(3)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d units", len(a), len(b))
	}
	for i := range a {
		for k := range a[i][0] {
			if a[i][0][k] != b[i][0][k] {
				t.Fatalf("unit %d vertex %d differs across runs", i, k)
			}
		}
	}
	c := collect(4)
	same := true
	for i := range a {
		for k := range a[i][0] {
			if a[i][0][k] != c[i][0][k] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seeds 3 and 4 produced identical layers")
	}
}

// TestTigerLayerAbort checks emit errors propagate immediately.
func TestTigerLayerAbort(t *testing.T) {
	want := errSentinel("stop")
	calls := 0
	err := TigerLayer(TigerConfig{Units: 100, Seed: 1}, func(i int, name string, parts geom.MultiPolygon) error {
		calls++
		if i == 3 {
			return want
		}
		return nil
	})
	if err != want {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Fatalf("emit called %d times, want 4", calls)
	}
}

type errSentinel string

func (e errSentinel) Error() string { return string(e) }
