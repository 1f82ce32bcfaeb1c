package partition_test

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"geoalign/internal/partition"
)

// TestTiledBuildStopsOnTileFailure fails the first tile's load and
// checks that the build returns that error without the other workers
// joining the rest of the grid: each stops at its next tile claim.
// Every other tile's load is slowed a little, so a worker that kept
// going would claim most of the grid before the build returned.
func TestTiledBuildStopsOnTileFailure(t *testing.T) {
	src, tgt := tigerUnits(t, 2000, 11), tigerUnits(t, 120, 12)
	const cols, rows = 16, 16
	errTile := errors.New("injected tile failure")
	var loads atomic.Int64
	defer partition.SetTileLoadHook(func(layer, tile int) error {
		if layer != 0 {
			return nil
		}
		loads.Add(1)
		if tile == 0 {
			return errTile
		}
		time.Sleep(time.Millisecond)
		return nil
	})()
	_, _, err := partition.TiledMeasureDM(partition.SliceStream(src), partition.SliceStream(tgt),
		partition.TiledOptions{TileCols: cols, TileRows: rows, Workers: 4})
	if !errors.Is(err, errTile) {
		t.Fatalf("build error %v, want the injected tile failure", err)
	}
	if n := loads.Load(); n > cols*rows/2 {
		t.Errorf("%d of %d tiles loaded after the first tile failed", n, cols*rows)
	}
}

// TestTiledBuildAllocationPinned pins the garbage the tiled build makes
// on the TIGER 2000×120 pair under a budget that spills nine times:
// spilled buckets hand their chunks to the pool, so refilling them
// allocates nothing, and what a build allocates is its grid, its
// per-worker arenas, the triplet log and the output. A build that let
// spilled buffers go — each refill allocating anew — passes the bound.
// The bytes held in bucket chunks, pooled ones included, stay within
// MemBudget.
func TestTiledBuildAllocationPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates allocation counts")
	}
	src, tgt := tigerUnits(t, 2000, 11), tigerUnits(t, 120, 12)
	opt := partition.TiledOptions{MemBudget: 128 << 10, Workers: 1, SpillDir: t.TempDir()}
	build := func() partition.TiledStats {
		_, stats, err := partition.TiledMeasureDM(partition.SliceStream(src), partition.SliceStream(tgt), opt)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	stats := build()
	if stats.SpilledBytes == 0 {
		t.Fatal("the budget no longer makes the build spill")
	}
	if stats.PeakHeldBytes > opt.MemBudget {
		t.Errorf("bucket chunks held %d bytes at peak, budget %d", stats.PeakHeldBytes, opt.MemBudget)
	}
	const builds = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / builds
	allocs := (after.Mallocs - before.Mallocs) / builds
	t.Logf("%d bytes, %d allocations per build; spilled %d, peak held %d, peak resident %d",
		bytes, allocs, stats.SpilledBytes, stats.PeakHeldBytes, stats.PeakBucketBytes)
	// About 0.8 MB in 350 allocations here; letting spilled chunks go
	// adds about 0.3 MB in 290 allocations.
	const maxBytes, maxAllocs = 1 << 20, 450
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("tiled build allocated %d bytes in %d allocations, bound %d bytes in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
