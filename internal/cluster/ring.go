// Package cluster is GeoAlign's fleet-serving layer: a consistent-hash
// shard router in front of N geoalignd replicas, plus the manifest and
// blob plumbing (internal/cluster/blobstore) that gets every replica
// the engine snapshots it needs before it takes traffic.
//
// Routing is by engine name. One engine's requests concentrate on one
// replica, so that replica's page cache, solver warm starts, and
// result cache all stay hot for the engines it owns. The ring
// uses consistent hashing with bounded loads (Mirrokni et al.,
// arXiv:1608.01350): a key's primary owner is the first virtual node
// clockwise from its hash, but a request may spill to the next
// distinct replica when the primary's in-flight load exceeds the
// configured factor over the fleet average. Spill is safe because
// replicas warm every manifest engine (mmap is ~5ms per engine), so
// ownership is an optimisation, never a correctness constraint.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"geoalign/internal/hashmix"
)

// DefaultVNodes is the virtual-node count per replica when the caller
// passes 0: enough that removing one replica moves ~1/n of the key
// space with low variance, cheap enough that rebuilds are trivial.
const DefaultVNodes = 128

// DefaultLoadFactor bounds a replica's in-flight load at 25% over the
// fleet average before requests spill to the next ring node.
const DefaultLoadFactor = 1.25

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int // index into Ring.nodes
}

// nodeState is one replica's ring bookkeeping.
type nodeState struct {
	id       string
	inflight atomic.Int64
}

// Ring is a bounded-load consistent-hash ring over replica IDs. All
// methods are safe for concurrent use; Owner and the load counters are
// lock-free reads against an immutable points slice that membership
// changes swap wholesale.
type Ring struct {
	vnodes int
	factor float64

	mu    sync.Mutex // guards membership rebuilds
	state atomic.Pointer[ringState]

	total atomic.Int64 // in-flight requests fleet-wide
}

// ringState is the immutable membership snapshot Owner reads.
type ringState struct {
	nodes  []*nodeState // sorted by id
	points []ringPoint  // sorted by hash
}

// NewRing builds an empty ring. vnodes <= 0 takes DefaultVNodes;
// factor <= 1 disables bounded-load spill (pure consistent hashing).
func NewRing(vnodes int, factor float64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, factor: factor}
	r.state.Store(&ringState{})
	return r
}

// hashKey is FNV-1a with a splitmix64 finaliser. Raw FNV clusters on
// short sequential strings (vnode labels differ by one suffix digit),
// which skews ring balance badly; the finaliser's avalanche fixes the
// low-bit correlation without pulling in a crypto hash.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return hashmix.SplitMix64(h.Sum64())
}

// SetNodes replaces the ring membership. In-flight counters of nodes
// that persist across the change are carried over, so a rebalance does
// not forget the load picture.
func (r *Ring) SetNodes(ids []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.state.Load()
	carried := make(map[string]*nodeState, len(old.nodes))
	for _, n := range old.nodes {
		carried[n.id] = n
	}
	seen := make(map[string]bool, len(ids))
	nodes := make([]*nodeState, 0, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if n, ok := carried[id]; ok {
			nodes = append(nodes, n)
		} else {
			nodes = append(nodes, &nodeState{id: id})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	points := make([]ringPoint, 0, len(nodes)*r.vnodes)
	for ni, n := range nodes {
		for v := 0; v < r.vnodes; v++ {
			points = append(points, ringPoint{hash: hashKey(n.id + "#" + strconv.Itoa(v)), node: ni})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	r.state.Store(&ringState{nodes: nodes, points: points})
}

// Nodes returns the current membership, sorted.
func (r *Ring) Nodes() []string {
	st := r.state.Load()
	out := make([]string, len(st.nodes))
	for i, n := range st.nodes {
		out[i] = n.id
	}
	return out
}

// Len reports the current replica count.
func (r *Ring) Len() int { return len(r.state.Load().nodes) }

// Owner returns the replica that should serve key: the primary owner,
// or — under bounded load — the first clockwise replica whose
// in-flight count is within factor × the fleet average. ok is false on
// an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	st := r.state.Load()
	if len(st.nodes) == 0 {
		return "", false
	}
	if len(st.nodes) == 1 {
		return st.nodes[0].id, true
	}
	h := hashKey(key)
	i := sort.Search(len(st.points), func(i int) bool { return st.points[i].hash >= h })
	if r.factor <= 1 {
		return st.nodes[st.points[i%len(st.points)].node].id, true
	}
	// Bounded load: admit the first distinct node clockwise whose
	// in-flight count (counting this request) stays within the bound.
	// The bound uses ceil so tiny fleets under light load never spill
	// spuriously (e.g. 1 in-flight on 2 nodes must admit the primary).
	bound := r.loadBound(len(st.nodes))
	primary := -1
	seen := 0
	for off := 0; off < len(st.points) && seen < len(st.nodes); off++ {
		p := st.points[(i+off)%len(st.points)]
		n := st.nodes[p.node]
		if p.node == primary {
			continue
		}
		if primary == -1 {
			primary = p.node
		}
		seen++
		if n.inflight.Load()+1 <= bound {
			return n.id, true
		}
	}
	// Every replica is at the bound (all equally loaded); the primary
	// is as good as any.
	return st.nodes[st.points[i%len(st.points)].node].id, true
}

// loadBound is the bounded-load admission threshold: ceil(factor ×
// (total+1) / n), per the CHBL paper, with the +1 counting the request
// being placed.
func (r *Ring) loadBound(n int) int64 {
	avg := float64(r.total.Load()+1) / float64(n)
	b := int64(r.factor * avg)
	if float64(b) < r.factor*avg {
		b++
	}
	if b < 1 {
		b = 1
	}
	return b
}

// OwnerSuccessors returns up to n distinct replicas clockwise from
// key's hash point, primary first — the failover order when the owner
// is unreachable.
func (r *Ring) OwnerSuccessors(key string, n int) []string {
	st := r.state.Load()
	if len(st.nodes) == 0 || n <= 0 {
		return nil
	}
	if n > len(st.nodes) {
		n = len(st.nodes)
	}
	h := hashKey(key)
	i := sort.Search(len(st.points), func(i int) bool { return st.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for off := 0; off < len(st.points) && len(out) < n; off++ {
		p := st.points[(i+off)%len(st.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, st.nodes[p.node].id)
	}
	return out
}

// Acquire records one in-flight request on node. It returns a release
// func; calling Acquire for a node no longer in the ring still works
// (the counter is simply orphaned when released).
func (r *Ring) Acquire(node string) func() {
	st := r.state.Load()
	i := sort.Search(len(st.nodes), func(i int) bool { return st.nodes[i].id >= node })
	if i >= len(st.nodes) || st.nodes[i].id != node {
		return func() {}
	}
	n := st.nodes[i]
	n.inflight.Add(1)
	r.total.Add(1)
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			n.inflight.Add(-1)
			r.total.Add(-1)
		}
	}
}

// Inflight reports node's current in-flight count, 0 for unknown nodes.
func (r *Ring) Inflight(node string) int64 {
	st := r.state.Load()
	i := sort.Search(len(st.nodes), func(i int) bool { return st.nodes[i].id >= node })
	if i >= len(st.nodes) || st.nodes[i].id != node {
		return 0
	}
	return st.nodes[i].inflight.Load()
}

// Describe summarises the ring for debugging endpoints.
func (r *Ring) Describe() string {
	st := r.state.Load()
	return fmt.Sprintf("%d replicas, %d points", len(st.nodes), len(st.points))
}
