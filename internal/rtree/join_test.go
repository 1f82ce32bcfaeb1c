package rtree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"geoalign/internal/geom"
)

func randomJoinEntries(rng *rand.Rand, n int, span, size float64) []Entry {
	out := make([]Entry, n)
	for i := range out {
		x, y := rng.Float64()*span, rng.Float64()*span
		w, h := rng.Float64()*size, rng.Float64()*size
		out[i] = Entry{Box: geom.BBox{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: i}
	}
	return out
}

// brutePairs enumerates all bbox-intersecting pairs the slow way.
func brutePairs(a, b []Entry) [][2]int {
	var out [][2]int
	for _, ea := range a {
		for _, eb := range b {
			if ea.Box.Intersects(eb.Box) {
				out = append(out, [2]int{ea.ID, eb.ID})
			}
		}
	}
	return out
}

func sortPairs(p [][2]int) {
	sort.Slice(p, func(i, j int) bool {
		if p[i][0] != p[j][0] {
			return p[i][0] < p[j][0]
		}
		return p[i][1] < p[j][1]
	})
}

func pairsEqual(t *testing.T, got, want [][2]int, context string) {
	t.Helper()
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", context, len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("%s: pair %d is %v, want %v", context, k, got[k], want[k])
		}
	}
}

// TestJoinMatchesBruteForce checks the one-worker dual-tree join
// against the quadratic enumeration across sizes and fanouts
// (exercising leaf×leaf, leaf×internal and internal×internal descents).
func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct{ na, nb, fanout int }{
		{0, 10, 16}, {10, 0, 16}, {1, 1, 16},
		{7, 300, 4},   // shallow vs deep
		{300, 7, 4},   // deep vs shallow
		{250, 250, 4}, // deep vs deep
		{500, 400, 16},
	}
	for _, tc := range cases {
		ea := randomJoinEntries(rng, tc.na, 100, 8)
		eb := randomJoinEntries(rng, tc.nb, 100, 8)
		ta := NewWithFanout(ea, tc.fanout)
		tb := NewWithFanout(eb, tc.fanout)
		var got [][2]int
		JoinParallel(ta, tb, 1, func(_, i, j int) { got = append(got, [2]int{i, j}) })
		pairsEqual(t, got, brutePairs(ea, eb), "join")
	}
}

// TestJoinParallelMatchesBruteForce checks that the parallel split
// visits exactly the brute-force pair set and honours the
// entry-exclusivity guarantee: all pairs of one left entry are seen by
// a single worker. Run with -race to check the concurrent descent.
func TestJoinParallelMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ea := randomJoinEntries(rng, 400, 100, 6)
	eb := randomJoinEntries(rng, 350, 100, 6)
	ta := NewWithFanout(ea, 4)
	tb := NewWithFanout(eb, 4)
	for _, workers := range []int{1, 2, 3, 8} {
		perWorker := make([][][2]int, workers)
		var mu sync.Mutex // guards nothing shared in production use; here only the test's owner map below
		owner := make(map[int]int)
		JoinParallel(ta, tb, workers, func(w, i, j int) {
			perWorker[w] = append(perWorker[w], [2]int{i, j})
			mu.Lock()
			if prev, ok := owner[i]; ok && prev != w {
				t.Errorf("entry %d visited by workers %d and %d", i, prev, w)
			}
			owner[i] = w
			mu.Unlock()
		})
		var got [][2]int
		for _, p := range perWorker {
			got = append(got, p...)
		}
		pairsEqual(t, got, brutePairs(ea, eb), "parallel join")
	}
}

// TestJoinEmptyTrees checks the degenerate inputs.
func TestJoinEmptyTrees(t *testing.T) {
	empty := New(nil)
	full := New(randomJoinEntries(rand.New(rand.NewSource(1)), 10, 10, 2))
	calls := 0
	for _, workers := range []int{1, 4} {
		JoinParallel(empty, full, workers, func(w, i, j int) { calls++ })
		JoinParallel(full, empty, workers, func(w, i, j int) { calls++ })
	}
	if calls != 0 {
		t.Fatalf("join on empty tree visited %d pairs", calls)
	}
}
