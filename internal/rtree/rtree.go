// Package rtree provides a static, bulk-loaded R-tree over 2-D bounding
// boxes. GeoAlign's geometric preprocessing uses it to enumerate
// candidate (source unit, target unit) pairs whose polygons may overlap
// — the same role the spatial index inside ArcGIS plays in the paper's
// data preparation (§4.1).
//
// The tree is built once with Sort-Tile-Recursive (STR) packing
// (Leutenegger et al., 1997) and then queried; there is no dynamic
// insert/delete because unit systems are immutable inputs.
package rtree

import (
	"slices"

	"geoalign/internal/geom"
)

// Entry associates a bounding box with a caller-defined index (usually
// a unit index in a partition).
type Entry struct {
	Box geom.BBox
	ID  int
}

// Tree is an immutable STR-packed R-tree.
type Tree struct {
	root *node
	size int
}

type node struct {
	box      geom.BBox
	children []*node // nil for leaves
	entries  []Entry // nil for internal nodes
}

// DefaultFanout is the node capacity used by New.
const DefaultFanout = 16

// New bulk-loads a tree from the given entries using STR packing with
// the default fanout. The entries slice is copied.
func New(entries []Entry) *Tree {
	return NewWithFanout(entries, DefaultFanout)
}

// NewWithFanout bulk-loads with an explicit node capacity (minimum 2).
func NewWithFanout(entries []Entry, fanout int) *Tree {
	var b Builder
	t := *b.build(entries, fanout)
	return &t
}

// Builder bulk-loads trees like New while reusing its buffers from one
// build to the next: the sort keys, the entry copies, the node slab
// and the child pointers all grow to the largest tree built and are
// then recycled, so repeated builds allocate nothing in steady state.
// A tree from Build is valid only until the next Build on the same
// Builder. The zero value is ready to use; a Builder is not safe for
// concurrent use.
type Builder struct {
	keys        []sortKey
	flat        []Entry
	nodes       []node
	kids        []*node
	level, next []*node
	tree        Tree
}

// Build packs entries with the default fanout into a tree owned by b.
// The tree is the same one New builds from the same entries.
func (b *Builder) Build(entries []Entry) *Tree {
	return b.build(entries, DefaultFanout)
}

func (b *Builder) build(entries []Entry, fanout int) *Tree {
	if fanout < 2 {
		fanout = 2
	}
	b.tree = Tree{size: len(entries)}
	if len(entries) == 0 {
		return &b.tree
	}
	// Size the slabs for every level up front: nodes and child
	// pointers are carved from them, so they must never reallocate
	// while a level still points into them.
	total := 0
	for m := len(entries); ; {
		m = (m + fanout - 1) / fanout
		total += m
		if m == 1 {
			break
		}
	}
	if cap(b.nodes) < total {
		b.nodes = make([]node, 0, total)
	}
	if cap(b.kids) < total-1 {
		b.kids = make([]*node, 0, total-1)
	}
	if cap(b.flat) < len(entries) {
		b.flat = make([]Entry, 0, len(entries))
	}
	b.nodes, b.kids, b.flat = b.nodes[:0], b.kids[:0], b.flat[:0]
	b.packLeaves(entries, fanout)
	for len(b.level) > 1 {
		b.packNodes(fanout)
	}
	b.tree.root = b.level[0]
	return &b.tree
}

// sortKey is one item of an STR sort: a box-centre coordinate, taken
// once per sort instead of on every comparison, and the item's index.
// Sorting these 16-byte keys instead of the items moves less memory.
type sortKey struct {
	k float64
	i int
}

// byKey is the STR order. slices.SortFunc runs the same
// pattern-defeating quicksort as the sort.Slice calls it replaces,
// deciding on cmp(a, b) < 0 exactly where sort.Slice decided on
// less(a, b) — a centre coordinate strictly below the other's — so the
// packed tree, and every join order built on it, is unchanged.
func byKey(a, b sortKey) int {
	switch {
	case a.k < b.k:
		return -1
	case a.k > b.k:
		return 1
	}
	return 0
}

// strGroups is the STR tiling of n boxes: it sorts them by centre X,
// slices the order into vertical strips of s·fanout items (s the
// ceiling square root of the group count), sorts each strip by centre
// Y and calls group with the indices of every run of up to fanout
// consecutive items of a strip. The keys live in b.keys.
func (b *Builder) strGroups(n, fanout int, box func(i int) geom.BBox, group func(run []sortKey)) {
	perStrip := intSqrtCeil((n+fanout-1)/fanout) * fanout
	keys := slices.Grow(b.keys[:0], n)[:n]
	b.keys = keys
	for i := range keys {
		bb := box(i)
		keys[i] = sortKey{k: (bb.MinX + bb.MaxX) / 2, i: i}
	}
	slices.SortFunc(keys, byKey)
	for s := 0; s < n; s += perStrip {
		strip := keys[s:min(s+perStrip, n)]
		for j := range strip {
			bb := box(strip[j].i)
			strip[j].k = (bb.MinY + bb.MaxY) / 2
		}
		slices.SortFunc(strip, byKey)
		for ls := 0; ls < len(strip); ls += fanout {
			group(strip[ls:min(ls+fanout, len(strip))])
		}
	}
}

// packLeaves tiles entries into leaf nodes: sort by center X, slice into
// vertical strips, sort each strip by center Y, chunk into leaves. The
// leaves and their copies of the entries are carved from b's slabs, and
// b.level ends up pointing at the leaves.
func (b *Builder) packLeaves(entries []Entry, fanout int) {
	lo0 := len(b.nodes)
	b.strGroups(len(entries), fanout, func(i int) geom.BBox { return entries[i].Box }, func(run []sortKey) {
		lo := len(b.flat)
		box := geom.EmptyBBox()
		for _, k := range run {
			e := entries[k.i]
			b.flat = append(b.flat, e)
			box = box.Union(e.Box)
		}
		b.nodes = append(b.nodes, node{box: box, entries: b.flat[lo:len(b.flat):len(b.flat)]})
	})
	b.level = b.nodePtrs(b.level, lo0)
}

// packNodes groups the nodes of b.level into parents the same way and
// makes the parents the new b.level.
func (b *Builder) packNodes(fanout int) {
	level := b.level
	lo0 := len(b.nodes)
	b.strGroups(len(level), fanout, func(i int) geom.BBox { return level[i].box }, func(run []sortKey) {
		lo := len(b.kids)
		box := geom.EmptyBBox()
		for _, k := range run {
			c := level[k.i]
			b.kids = append(b.kids, c)
			box = box.Union(c.box)
		}
		b.nodes = append(b.nodes, node{box: box, children: b.kids[lo:len(b.kids):len(b.kids)]})
	})
	b.level, b.next = b.nodePtrs(b.next, lo0), level
}

// nodePtrs fills dst with pointers to the nodes b.nodes[lo:] of the
// level just packed.
func (b *Builder) nodePtrs(dst []*node, lo int) []*node {
	dst = dst[:0]
	for i := lo; i < len(b.nodes); i++ {
		dst = append(dst, &b.nodes[i])
	}
	return dst
}

func intSqrtCeil(n int) int {
	if n <= 1 {
		return 1
	}
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// Search appends to dst the IDs of all entries whose boxes intersect
// query and returns the extended slice. Pass nil to allocate fresh.
func (t *Tree) Search(query geom.BBox, dst []int) []int {
	if t.root == nil {
		return dst
	}
	return search(t.root, query, dst)
}

func search(nd *node, q geom.BBox, dst []int) []int {
	if !nd.box.Intersects(q) {
		return dst
	}
	if nd.children == nil {
		for _, e := range nd.entries {
			if e.Box.Intersects(q) {
				dst = append(dst, e.ID)
			}
		}
		return dst
	}
	for _, c := range nd.children {
		dst = search(c, q, dst)
	}
	return dst
}

// SearchCount reports how many entries intersect query without
// materialising their IDs — the allocation-free probe the catalog's
// crosswalk-density sampler runs in a tight loop.
func (t *Tree) SearchCount(query geom.BBox) int {
	if t.root == nil {
		return 0
	}
	return searchCount(t.root, query)
}

func searchCount(nd *node, q geom.BBox) int {
	if !nd.box.Intersects(q) {
		return 0
	}
	n := 0
	if nd.children == nil {
		for _, e := range nd.entries {
			if e.Box.Intersects(q) {
				n++
			}
		}
		return n
	}
	for _, c := range nd.children {
		n += searchCount(c, q)
	}
	return n
}

// Visit calls fn for every entry whose box intersects query; returning
// false from fn stops the traversal early.
func (t *Tree) Visit(query geom.BBox, fn func(Entry) bool) {
	if t.root != nil {
		visit(t.root, query, fn)
	}
}

func visit(nd *node, q geom.BBox, fn func(Entry) bool) bool {
	if !nd.box.Intersects(q) {
		return true
	}
	if nd.children == nil {
		for _, e := range nd.entries {
			if e.Box.Intersects(q) && !fn(e) {
				return false
			}
		}
		return true
	}
	for _, c := range nd.children {
		if !visit(c, q, fn) {
			return false
		}
	}
	return true
}

// Bounds returns the bounding box of all indexed entries (empty box for
// an empty tree).
func (t *Tree) Bounds() geom.BBox {
	if t.root == nil {
		return geom.EmptyBBox()
	}
	return t.root.box
}
