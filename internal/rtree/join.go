package rtree

import (
	"sync"
	"sync/atomic"
)

// joinNodes calls visit(i, j) for every pair of entries — one under x,
// one under y — whose bounding boxes intersect, in a single
// simultaneous descent of both subtrees: subtrees of y whose boxes miss
// a whole subtree of x are pruned once for the entire subtree instead
// of once per entry. The visit order is deterministic (a depth-first
// interleaving of both trees); each entry of x meets its partners in
// y's depth-first order.
func joinNodes(x, y *node, visit func(i, j int)) {
	if !x.box.Intersects(y.box) {
		return
	}
	switch {
	case x.children == nil && y.children == nil:
		for _, ea := range x.entries {
			if !ea.Box.Intersects(y.box) {
				continue
			}
			for _, eb := range y.entries {
				if ea.Box.Intersects(eb.Box) {
					visit(ea.ID, eb.ID)
				}
			}
		}
	case x.children == nil:
		for _, c := range y.children {
			joinNodes(x, c, visit)
		}
	case y.children == nil:
		for _, c := range x.children {
			joinNodes(c, y, visit)
		}
	default:
		for _, cx := range x.children {
			if !cx.box.Intersects(y.box) {
				continue
			}
			for _, cy := range y.children {
				joinNodes(cx, cy, visit)
			}
		}
	}
}

// JoinParallel enumerates every pair of entries — one from a, one from
// b — whose bounding boxes intersect, in a dual-tree join (joinNodes)
// with the top level of a split across workers: a is decomposed into
// subtrees, each joined against all of b by whichever worker claims
// it. visit(w, i, j) receives the worker index 0 ≤ w < workers
// alongside the pair, so callers can keep per-worker scratch state
// without locking. With one worker the whole join runs on the caller's
// goroutine in joinNodes' deterministic order.
//
// Entry-exclusivity guarantee: all pairs (i, ·) for a given entry i of
// a are visited by a single worker (entries of a leaf never split), so
// per-i accumulation needs no synchronization. The assignment of
// subtrees to workers is scheduling-dependent; callers that need a
// deterministic result must make visit order-independent per i (as a
// row-keyed accumulation is).
func JoinParallel(a, b *Tree, workers int, visit func(w, i, j int)) {
	if a == nil || b == nil || a.root == nil || b.root == nil {
		return
	}
	if workers < 1 {
		workers = 1
	}
	tasks := a.topSubtrees(4 * workers)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		joinNodes(a.root, b.root, func(i, j int) { visit(0, i, j) })
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t := int(atomic.AddInt64(&next, 1))
				if t >= len(tasks) {
					return
				}
				joinNodes(tasks[t], b.root, func(i, j int) { visit(w, i, j) })
			}
		}(w)
	}
	wg.Wait()
}

// topSubtrees returns at least want disjoint subtrees that together
// cover the whole tree, by expanding levels from the root until the
// frontier is wide enough (or consists only of leaves). Every entry
// lives in exactly one returned subtree.
func (t *Tree) topSubtrees(want int) []*node {
	if t.root == nil {
		return nil
	}
	nodes := []*node{t.root}
	for len(nodes) < want {
		expanded := false
		nxt := make([]*node, 0, len(nodes)*2)
		for _, nd := range nodes {
			if nd.children == nil {
				nxt = append(nxt, nd)
			} else {
				nxt = append(nxt, nd.children...)
				expanded = true
			}
		}
		nodes = nxt
		if !expanded {
			break
		}
	}
	return nodes
}
