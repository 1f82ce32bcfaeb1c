package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"geoalign/internal/geom"
)

func randomEntries(rng *rand.Rand, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		x, y := rng.Float64()*100, rng.Float64()*100
		w, h := rng.Float64()*5, rng.Float64()*5
		out[i] = Entry{Box: geom.BBox{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: i}
	}
	return out
}

func bruteForce(entries []Entry, q geom.BBox) []int {
	var ids []int
	for _, e := range entries {
		if e.Box.Intersects(q) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.Search(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, nil); len(got) != 0 {
		t.Errorf("Search on empty tree = %v", got)
	}
	if !tr.Bounds().IsEmpty() {
		t.Error("empty tree bounds not empty")
	}
}

func TestSingleEntry(t *testing.T) {
	e := Entry{Box: geom.BBox{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, ID: 42}
	tr := New([]Entry{e})
	if got := tr.Search(geom.BBox{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}, nil); len(got) != 1 || got[0] != 42 {
		t.Errorf("Search = %v", got)
	}
	if got := tr.Search(geom.BBox{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, nil); len(got) != 0 {
		t.Errorf("miss returned %v", got)
	}
	if tr.Bounds() != e.Box {
		t.Errorf("Bounds = %v", tr.Bounds())
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	entries := randomEntries(rng, 500)
	tr := New(entries)
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for trial := 0; trial < 100; trial++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		q := geom.BBox{MinX: x, MinY: y, MaxX: x + rng.Float64()*20, MaxY: y + rng.Float64()*20}
		got := tr.Search(q, nil)
		want := bruteForce(entries, q)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSearchAppendsToDst(t *testing.T) {
	entries := []Entry{{Box: geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, ID: 7}}
	tr := New(entries)
	dst := []int{99}
	got := tr.Search(geom.BBox{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}, dst)
	if len(got) != 2 || got[0] != 99 || got[1] != 7 {
		t.Errorf("Search append = %v", got)
	}
}

func TestVisitEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := randomEntries(rng, 200)
	tr := New(entries)
	count := 0
	tr.Visit(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, func(Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("Visit stopped after %d, want 5", count)
	}
}

func TestVisitSeesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	entries := randomEntries(rng, 123)
	tr := New(entries)
	seen := make(map[int]bool)
	tr.Visit(geom.BBox{MinX: -1, MinY: -1, MaxX: 200, MaxY: 200}, func(e Entry) bool {
		seen[e.ID] = true
		return true
	})
	if len(seen) != 123 {
		t.Errorf("Visit saw %d entries, want 123", len(seen))
	}
}

func TestFanoutVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	entries := randomEntries(rng, 300)
	q := geom.BBox{MinX: 20, MinY: 20, MaxX: 50, MaxY: 50}
	want := bruteForce(entries, q)
	sort.Ints(want)
	for _, fan := range []int{2, 3, 4, 16, 64, 1000} {
		tr := NewWithFanout(entries, fan)
		got := tr.Search(q, nil)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("fanout %d: got %d, want %d", fan, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("fanout %d: mismatch", fan)
			}
		}
	}
}

func TestFanoutBelowMinimumClamped(t *testing.T) {
	entries := randomEntries(rand.New(rand.NewSource(1)), 20)
	tr := NewWithFanout(entries, 0)
	if got := tr.Search(geom.BBox{MinX: -1, MinY: -1, MaxX: 200, MaxY: 200}, nil); len(got) != 20 {
		t.Errorf("clamped-fanout tree returned %d of 20", len(got))
	}
}

func TestQuickSearchEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := randomEntries(rng, 1+rng.Intn(100))
		tr := New(entries)
		for trial := 0; trial < 5; trial++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			q := geom.BBox{MinX: x, MinY: y, MaxX: x + rng.Float64()*30, MaxY: y + rng.Float64()*30}
			got := tr.Search(q, nil)
			want := bruteForce(entries, q)
			if len(got) != len(want) {
				return false
			}
			sort.Ints(got)
			sort.Ints(want)
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// sortSliceTree is the STR packing as it was written with sort.Slice
// and per-comparison centre computation — the reference for the order
// the packed tree must keep.
func sortSliceTree(entries []Entry, fanout int) *node {
	work := append([]Entry(nil), entries...)
	var level []*node
	sort.Slice(work, func(i, j int) bool { return work[i].Box.Center().X < work[j].Box.Center().X })
	perStrip := intSqrtCeil((len(work)+fanout-1)/fanout) * fanout
	for s := 0; s < len(work); s += perStrip {
		strip := work[s:min(s+perStrip, len(work))]
		sort.Slice(strip, func(i, j int) bool { return strip[i].Box.Center().Y < strip[j].Box.Center().Y })
		for ls := 0; ls < len(strip); ls += fanout {
			leaf := &node{entries: append([]Entry(nil), strip[ls:min(ls+fanout, len(strip))]...), box: geom.EmptyBBox()}
			for _, e := range leaf.entries {
				leaf.box = leaf.box.Union(e.Box)
			}
			level = append(level, leaf)
		}
	}
	for len(level) > 1 {
		var parents []*node
		sort.Slice(level, func(i, j int) bool { return level[i].box.Center().X < level[j].box.Center().X })
		perStrip := intSqrtCeil((len(level)+fanout-1)/fanout) * fanout
		for s := 0; s < len(level); s += perStrip {
			strip := level[s:min(s+perStrip, len(level))]
			sort.Slice(strip, func(i, j int) bool { return strip[i].box.Center().Y < strip[j].box.Center().Y })
			for ls := 0; ls < len(strip); ls += fanout {
				p := &node{children: append([]*node(nil), strip[ls:min(ls+fanout, len(strip))]...), box: geom.EmptyBBox()}
				for _, c := range p.children {
					p.box = p.box.Union(c.box)
				}
				parents = append(parents, p)
			}
		}
		level = parents
	}
	return level[0]
}

func sameTree(t *testing.T, got, want *node, path string) {
	t.Helper()
	if got.box != want.box || len(got.children) != len(want.children) || len(got.entries) != len(want.entries) {
		t.Fatalf("%s: node %+v (%d children, %d entries), want %+v (%d, %d)", path,
			got.box, len(got.children), len(got.entries), want.box, len(want.children), len(want.entries))
	}
	for k := range got.entries {
		if got.entries[k] != want.entries[k] {
			t.Fatalf("%s: entry %d is %+v, want %+v", path, k, got.entries[k], want.entries[k])
		}
	}
	for k := range got.children {
		sameTree(t, got.children[k], want.children[k], path+"/"+string(rune('a'+k%26)))
	}
}

// TestSTRPackingMatchesSortSlice pins the packed tree to the sort.Slice
// packing it replaced, node by node, on layers with heavy centre ties
// (boxes on a coarse integer lattice) as well as distinct centres: the
// join order of every crosswalk build follows this structure. One
// Builder packs every trial too, so its reused buffers (from larger and
// smaller earlier trees) must give the same tree.
func TestSTRPackingMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var b Builder
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(600)
		var entries []Entry
		if trial%2 == 0 {
			entries = make([]Entry, n)
			for i := range entries {
				x, y := float64(rng.Intn(6)), float64(rng.Intn(4))
				w, h := float64(rng.Intn(3)), float64(rng.Intn(3))
				entries[i] = Entry{Box: geom.BBox{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: i}
			}
		} else {
			entries = randomEntries(rng, n)
		}
		fanout := []int{2, 4, 16}[trial%3]
		want := sortSliceTree(entries, fanout)
		sameTree(t, NewWithFanout(entries, fanout).root, want, "root")
		sameTree(t, b.build(entries, fanout).root, want, "builder root")
	}
}

// TestBuilderReuseAllocatesNothing pins the reusable build path: once a
// Builder has packed a tree, packing one no larger allocates nothing.
func TestBuilderReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big, small := randomEntries(rng, 900), randomEntries(rng, 300)
	var b Builder
	b.Build(big)
	allocs := testing.AllocsPerRun(20, func() {
		if b.Build(small).Len() != len(small) || b.Build(big).Len() != len(big) {
			t.Fatal("wrong tree size")
		}
	})
	if allocs != 0 {
		t.Errorf("Builder.Build allocated %.1f times per reuse, want 0", allocs)
	}
}
