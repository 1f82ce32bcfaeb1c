package rtree

import (
	"math/rand"
	"testing"

	"geoalign/internal/geom"
)

func benchEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(1))
	out := make([]Entry, n)
	for i := range out {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		out[i] = Entry{Box: geom.BBox{MinX: x, MinY: y, MaxX: x + 5, MaxY: y + 5}, ID: i}
	}
	return out
}

func BenchmarkBulkLoad(b *testing.B) {
	entries := benchEntries(30238)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(entries)
	}
}

// tileEntries lays n boxes on a square lattice over [0,1000]², each its
// cell grown by up to a quarter cell per side, so neighbours overlap
// like the parts of two jittered-lattice polygon layers.
func tileEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	g := intSqrtCeil(n)
	cell := 1000 / float64(g)
	grow := func() float64 { return rng.Float64() * cell / 4 }
	out := make([]Entry, n)
	for i := range out {
		x, y := float64(i%g)*cell, float64(i/g)*cell
		out[i] = Entry{Box: geom.BBox{MinX: x - grow(), MinY: y - grow(), MaxX: x + cell + grow(), MaxY: y + cell + grow()}, ID: i}
	}
	return out
}

// BenchmarkJoin compares two ways of enumerating every intersecting
// (source, target) box pair. At the US crosswalk scale (30238 source
// boxes × 3142 target boxes), with both trees already built, it times
// the dual-tree join against one Search of the target tree per source
// box. The tile arms take the shape of one tile of a tiled crosswalk
// build (1500 source × 76 target boxes) and count tree construction,
// as a tile pays it: STR-packing both trees and joining them, against
// packing the target tree alone and probing it once per source box.
func BenchmarkJoin(b *testing.B) {
	src := benchEntries(30238)
	tgt := benchEntries(3142)
	ta, tb := New(src), New(tgt)
	b.Run("dual-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pairs := 0
			JoinParallel(ta, tb, 1, func(_, i, j int) { pairs++ })
			if pairs == 0 {
				b.Fatal("no pairs")
			}
		}
	})
	b.Run("per-row-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pairs := 0
			var dst []int
			for _, e := range src {
				dst = tb.Search(e.Box, dst[:0])
				pairs += len(dst)
			}
			if pairs == 0 {
				b.Fatal("no pairs")
			}
		}
	})
	tileSrc, tileTgt := tileEntries(1500, 3), tileEntries(76, 4)
	b.Run("tile-both-trees-join", func(b *testing.B) {
		var sb, tb Builder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pairs := 0
			JoinParallel(sb.Build(tileSrc), tb.Build(tileTgt), 1, func(_, i, j int) { pairs++ })
			if pairs == 0 {
				b.Fatal("no pairs")
			}
		}
	})
	b.Run("tile-target-tree-search", func(b *testing.B) {
		var tb Builder
		var dst []int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pairs := 0
			tree := tb.Build(tileTgt)
			for _, e := range tileSrc {
				dst = tree.Search(e.Box, dst[:0])
				pairs += len(dst)
			}
			if pairs == 0 {
				b.Fatal("no pairs")
			}
		}
	})
}

func BenchmarkSearch(b *testing.B) {
	entries := benchEntries(30238)
	tr := New(entries)
	rng := rand.New(rand.NewSource(2))
	var dst []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		dst = tr.Search(geom.BBox{MinX: x, MinY: y, MaxX: x + 20, MaxY: y + 20}, dst[:0])
	}
}
