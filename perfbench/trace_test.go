package main

import (
	"math"
	"testing"
)

// oneRequest records the spans of request 1: a client span [0,100]
// whose body write ends at 10, a router span [20,80] holding the
// replica span [30,70], and a response read from 90. The generator
// waited [-50,0] before sending.
func oneRequest() *recorder {
	r := newRecorder()
	for _, s := range []span{
		{Name: "request", ID: 1, Req: 1, Start: -50, End: 100},
		{Name: "loadgen.wait", ID: 2, Parent: 1, Req: 1, Start: -50, End: 0},
		{Name: "client.send", ID: 3, Parent: 1, Req: 1, Start: 0, End: 100},
		{Name: "http.write", ID: 4, Parent: 1, Req: 1, Start: 0, End: 10},
		{Name: "cluster.router", ID: 5, Parent: 1, Req: 1, Start: 20, End: 80},
		{Name: "serve.replica", ID: 6, Parent: 5, Req: 1, Start: 30, End: 70},
		{Name: "http.read", ID: 7, Parent: 1, Req: 1, Start: 90, End: 100},
	} {
		r.add(s)
	}
	return r
}

func TestBreakdownCountsGapsBetweenLayersAsUnexplained(t *testing.T) {
	b := oneRequest().breakdown(map[int64]bool{1: true})
	if b.requests != 1 {
		t.Fatalf("requests = %d, want 1", b.requests)
	}
	// Uncovered: write end to router start (10) and router end to the
	// first response byte (10), of a 100 ns client span. The wait before
	// sending is not part of the client span.
	if math.Abs(b.unexplainedFrac-0.2) > 1e-12 {
		t.Errorf("unexplainedFrac = %v, want 0.2", b.unexplainedFrac)
	}
	if want := 20 / 1e6; math.Abs(b.routerSelfP50-want) > 1e-15 {
		t.Errorf("routerSelfP50 = %v ms, want %v", b.routerSelfP50, want)
	}
	if want := 40 / 1e6; math.Abs(b.transportP50-want) > 1e-15 {
		t.Errorf("transportP50 = %v ms, want %v", b.transportP50, want)
	}
}

func TestCoveredMergesNestedAndOverlappingSpans(t *testing.T) {
	root := span{Start: 0, End: 100}
	children := []span{
		{Start: 50, End: 120}, // clipped at the root's end
		{Start: 10, End: 40},
		{Start: 20, End: 30}, // nested
		{Start: 35, End: 45}, // overlaps the previous end
	}
	if got := covered(root, children); got != 85 {
		t.Errorf("covered = %d, want 85 ([10,45] and [50,100])", got)
	}
}
