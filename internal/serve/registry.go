package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"geoalign"
)

// ErrUnknownEngine is returned by Acquire for a name with no registered
// engine. The HTTP layer maps it to 404.
var ErrUnknownEngine = errors.New("serve: unknown engine")

// EngineMeta carries the provenance a registrant knows about an engine
// beyond what the aligner itself can report: the unit systems it
// crosses, the unit keys in engine order (the SnapshotMeta that
// travelled with the snapshot), and where it came from. The serving
// layer surfaces it on /v1/engines and feeds it to the alignment
// catalog so registered engines become searchable crosswalk edges.
type EngineMeta struct {
	// SourceType/TargetType tag the unit systems the engine crosses
	// ("zip", "county"); empty when unknown.
	SourceType string
	TargetType string
	// SourceKeys/TargetKeys are the unit keys in engine order — the
	// SnapshotMeta provenance. Nil when the registrant has no keys (the
	// engine still serves, but cannot be indexed as a catalog edge).
	SourceKeys []string
	TargetKeys []string
	// Provenance says how the engine was constructed: "snapshot",
	// "crosswalks", "delta", "manifest", or a registrant-defined tag.
	Provenance string
	// SnapshotPath is the backing snapshot file, when there is one.
	SnapshotPath string
	// SnapshotDigest is the content address of the backing snapshot
	// ("sha256:..."), when the registrant published it to a blob store.
	// It is what the cluster manifest distributes and what peers pull.
	SnapshotDigest string
}

// unitSystem renders the meta's "src→tgt" tag, "" when untyped.
func (m *EngineMeta) unitSystem() string {
	if m == nil || (m.SourceType == "" && m.TargetType == "") {
		return ""
	}
	return m.SourceType + "→" + m.TargetType
}

// EngineInfo describes one registered engine, as reported by
// GET /v1/engines.
type EngineInfo struct {
	Name        string `json:"name"`
	SourceUnits int    `json:"source_units"`
	TargetUnits int    `json:"target_units"`
	References  int    `json:"references"`
	Generation  int    `json:"generation"`
	Active      int64  `json:"active_requests"`
	// FromSnapshot reports whether the engine was mapped from a snapshot
	// file rather than built from crosswalks.
	FromSnapshot bool `json:"from_snapshot"`
	// MappedBytes is the size of the backing snapshot (0 when built).
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// PrecomputeBytes estimates the engine's resident precompute size.
	PrecomputeBytes int64 `json:"precompute_bytes"`
	// LoadMillis is how long registration-time construction took
	// (snapshot load or crosswalk build), when the registrant reported
	// it.
	LoadMillis float64 `json:"load_millis,omitempty"`
	// UnitSystem is the "source→target" unit-type tag from the engine's
	// registration metadata, empty when the registrant did not say.
	UnitSystem string `json:"unit_system,omitempty"`
	// SourceKeyCount/TargetKeyCount report how many unit keys the
	// registration metadata carried (the SnapshotMeta provenance); 0
	// when keys were not provided.
	SourceKeyCount int `json:"source_key_count,omitempty"`
	TargetKeyCount int `json:"target_key_count,omitempty"`
	// Provenance says how the engine was constructed ("snapshot",
	// "crosswalks", "delta"), from the registration metadata.
	Provenance string `json:"provenance,omitempty"`
	// SnapshotPath is the backing snapshot file path, when reported.
	SnapshotPath string `json:"snapshot_path,omitempty"`
	// SnapshotDigest is the snapshot's content address, when published
	// to a blob store; the cluster manifest serves engines by it.
	SnapshotDigest string `json:"snapshot_digest,omitempty"`
}

// Instance is one generation of a named engine. A request leases the
// instance it resolved, so a hot swap splits traffic cleanly: requests
// that leased the old generation solve and finish on it while new
// arrivals solve on the new one, and the result cache keys answers by
// the instance's generation.
type Instance struct {
	name    string
	gen     int
	aligner *geoalign.Aligner

	// owned instances close their aligner — releasing an mmap'd
	// snapshot — once retired AND drained. The deferral is what makes a
	// snapshot-backed hot swap safe: zero-copy views into the old
	// mapping stay valid until the last lease lets go.
	owned    bool
	loadTime time.Duration
	meta     *EngineMeta // immutable after registration; nil when unreported

	active  atomic.Int64
	retired atomic.Bool
	drained chan struct{}
	once    sync.Once
}

// Aligner returns the engine backing this instance.
func (in *Instance) Aligner() *geoalign.Aligner { return in.aligner }

// Name returns the registry name the instance was registered under.
func (in *Instance) Name() string { return in.name }

// Meta returns the engine metadata reported at registration, nil when
// the registrant provided none. The returned value is shared and must
// not be mutated.
func (in *Instance) Meta() *EngineMeta { return in.meta }

// Generation returns the instance's generation number under its name:
// 1 for the first registration, incremented by every Swap. Delta
// responses echo it so clients can tell which engine revision served
// them.
func (in *Instance) Generation() int { return in.gen }

// Drained returns a channel closed once the instance has been retired
// (swapped out or removed) and its last in-flight request has finished.
func (in *Instance) Drained() <-chan struct{} { return in.drained }

func (in *Instance) acquire() { in.active.Add(1) }

func (in *Instance) release() {
	if in.active.Add(-1) == 0 && in.retired.Load() {
		in.closeDrained()
	}
}

// retire is called under the registry lock when the instance is swapped
// out or removed.
func (in *Instance) retire() {
	in.retired.Store(true)
	if in.active.Load() == 0 {
		in.closeDrained()
	}
}

func (in *Instance) closeDrained() {
	in.once.Do(func() {
		// Release owned resources (the snapshot mapping) before
		// signalling: anyone unblocked by Drained observes the unmap
		// already done.
		if in.owned {
			in.aligner.Close()
		}
		close(in.drained)
	})
}

// Lease is a ref-counted claim on an instance. It keeps the instance's
// Drained channel open until released, so a swap never tears down an
// engine under an in-flight request.
type Lease struct {
	in       *Instance
	released atomic.Bool
}

// Instance returns the leased instance.
func (l *Lease) Instance() *Instance { return l.in }

// Aligner returns the leased instance's engine.
func (l *Lease) Aligner() *geoalign.Aligner { return l.in.aligner }

// Release drops the claim. Safe to call more than once.
func (l *Lease) Release() {
	if l.released.CompareAndSwap(false, true) {
		l.in.release()
	}
}

// Registry holds the named engines a server can route to. Engines are
// registered at startup (or swapped in at runtime); lookups take a
// ref-counted lease so replacement is race-free: Swap retires the old
// instance and its Drained channel closes once the last lease lets go.
type Registry struct {
	mu      sync.Mutex
	engines map[string]*Instance
	gens    map[string]int

	// swapHooks run after the current generation of a name changes —
	// outside the registry lock, in registration order. See OnSwap.
	swapHooks []func(name string, newGen int)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{engines: make(map[string]*Instance), gens: make(map[string]int)}
}

func (r *Registry) newInstance(name string, al *geoalign.Aligner) *Instance {
	r.gens[name]++
	return &Instance{name: name, gen: r.gens[name], aligner: al, drained: make(chan struct{})}
}

// Register adds a new named engine. It fails if the name is taken; use
// Swap to replace a live engine.
func (r *Registry) Register(name string, al *geoalign.Aligner) error {
	return r.register(name, al, false, 0, nil)
}

// RegisterOwned is Register for engines whose resources the registry
// owns — typically snapshot-backed aligners from geoalign.OpenSnapshot.
// When the instance is eventually retired and its last lease released,
// the registry closes the aligner, unmapping its snapshot. loadTime
// (how long the snapshot load or build took) is surfaced in EngineInfo
// and the metrics endpoint; pass 0 if unknown.
func (r *Registry) RegisterOwned(name string, al *geoalign.Aligner, loadTime time.Duration) error {
	return r.register(name, al, true, loadTime, nil)
}

// RegisterOwnedWithMeta is RegisterOwned carrying engine metadata:
// unit-system tags, the SnapshotMeta unit keys, and provenance. The
// metadata shows up on /v1/engines and lets the serving layer index
// the engine as a searchable catalog edge.
func (r *Registry) RegisterOwnedWithMeta(name string, al *geoalign.Aligner, loadTime time.Duration, meta *EngineMeta) error {
	return r.register(name, al, true, loadTime, meta)
}

func (r *Registry) register(name string, al *geoalign.Aligner, owned bool, loadTime time.Duration, meta *EngineMeta) error {
	if al == nil {
		return fmt.Errorf("serve: register %q: nil aligner", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.engines[name]; ok {
		return fmt.Errorf("serve: engine %q already registered", name)
	}
	in := r.newInstance(name, al)
	in.owned, in.loadTime, in.meta = owned, loadTime, meta
	r.engines[name] = in
	return nil
}

// Swap replaces (or creates) the named engine and returns the retired
// previous instance, nil if the name was new. In-flight requests finish
// on the old instance; wait on its Drained channel to observe that. If
// the old instance was registered owned, its aligner is closed (the
// snapshot unmapped) only after that drain completes.
func (r *Registry) Swap(name string, al *geoalign.Aligner) *Instance {
	return r.swap(name, al, false, 0, nil)
}

// SwapOwned is Swap with registry ownership of the new engine's
// resources, mirroring RegisterOwned.
func (r *Registry) SwapOwned(name string, al *geoalign.Aligner, loadTime time.Duration) *Instance {
	return r.swap(name, al, true, loadTime, nil)
}

// SwapOwnedWithMeta is SwapOwned carrying replacement metadata. Pass
// nil meta to inherit the displaced instance's metadata — the common
// delta-swap case, where the unit systems and keys are unchanged.
func (r *Registry) SwapOwnedWithMeta(name string, al *geoalign.Aligner, loadTime time.Duration, meta *EngineMeta) *Instance {
	return r.swap(name, al, true, loadTime, meta)
}

func (r *Registry) swap(name string, al *geoalign.Aligner, owned bool, loadTime time.Duration, meta *EngineMeta) *Instance {
	r.mu.Lock()
	old := r.engines[name]
	in := r.newInstance(name, al)
	in.owned, in.loadTime, in.meta = owned, loadTime, meta
	if in.meta == nil && old != nil {
		in.meta = old.meta
	}
	r.engines[name] = in
	if old != nil {
		old.retire()
	}
	gen, hooks := in.gen, r.swapHooks
	r.mu.Unlock()
	for _, fn := range hooks {
		fn(name, gen)
	}
	return old
}

// OnSwap registers fn to run after the current generation of any name
// changes: Swap/SwapOwned report the freshly published generation,
// Remove reports 0 (nothing is serving the name anymore). Hooks run
// outside the registry lock, on the swapping goroutine, after the new
// instance is visible to Acquire — the server uses this to purge
// result-cache entries keyed to displaced generations. Register hooks
// before serving traffic; OnSwap is not synchronised against in-flight
// swaps.
func (r *Registry) OnSwap(fn func(name string, newGen int)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.swapHooks = append(r.swapHooks, fn)
}

// Remove retires and unregisters the named engine, returning the
// retired instance or nil if the name was unknown.
func (r *Registry) Remove(name string) *Instance {
	r.mu.Lock()
	old := r.engines[name]
	var hooks []func(string, int)
	if old != nil {
		delete(r.engines, name)
		old.retire()
		hooks = r.swapHooks
	}
	r.mu.Unlock()
	for _, fn := range hooks {
		fn(name, 0)
	}
	return old
}

// Acquire leases the current instance of the named engine. The caller
// must Release the lease when the request is done.
func (r *Registry) Acquire(name string) (*Lease, error) {
	in, err := r.AcquireInstance(name)
	if err != nil {
		return nil, err
	}
	return &Lease{in: in}, nil
}

// AcquireInstance is the allocation-free variant of Acquire for hot
// paths: it takes the same ref-counted claim but returns the instance
// directly instead of wrapping it in a heap-allocated Lease. The caller
// must call ReleaseInstance (or in.release) exactly once.
func (r *Registry) AcquireInstance(name string) (*Instance, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.engines[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEngine, name)
	}
	in.acquire()
	return in, nil
}

// ReleaseInstance drops a claim taken with AcquireInstance. Unlike
// Lease.Release it must be called exactly once per acquire.
func (r *Registry) ReleaseInstance(in *Instance) { in.release() }

// Generation reports the current generation of the named engine, 0 if
// the name is unknown.
func (r *Registry) Generation(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.engines[name]; ok {
		return in.gen
	}
	return 0
}

// Len reports the number of registered engines.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.engines)
}

// List describes every registered engine, sorted by name.
func (r *Registry) List() []EngineInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EngineInfo, 0, len(r.engines))
	for _, in := range r.engines {
		st := in.aligner.Stats()
		info := EngineInfo{
			Name:            in.name,
			SourceUnits:     in.aligner.SourceUnits(),
			TargetUnits:     in.aligner.TargetUnits(),
			References:      in.aligner.References(),
			Generation:      in.gen,
			Active:          in.active.Load(),
			FromSnapshot:    st.FromSnapshot,
			MappedBytes:     st.MappedBytes,
			PrecomputeBytes: st.PrecomputeBytes,
			LoadMillis:      float64(in.loadTime) / float64(time.Millisecond),
		}
		if m := in.meta; m != nil {
			info.UnitSystem = m.unitSystem()
			info.SourceKeyCount = len(m.SourceKeys)
			info.TargetKeyCount = len(m.TargetKeys)
			info.Provenance = m.Provenance
			info.SnapshotPath = m.SnapshotPath
			info.SnapshotDigest = m.SnapshotDigest
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SnapshotTotals aggregates the registry's snapshot state for the
// metrics endpoint: how many live engines are snapshot-backed, the
// bytes they map, the summed precompute footprint of every engine, and
// the largest registration load time.
type SnapshotTotals struct {
	Engines         int
	SnapshotBacked  int
	MappedBytes     int64
	PrecomputeBytes int64
	MaxLoadMillis   float64
}

// Totals computes the aggregate engine gauges over the live (current
// generation) instances.
func (r *Registry) Totals() SnapshotTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t SnapshotTotals
	t.Engines = len(r.engines)
	for _, in := range r.engines {
		st := in.aligner.Stats()
		if st.FromSnapshot {
			t.SnapshotBacked++
			t.MappedBytes += st.MappedBytes
		}
		t.PrecomputeBytes += st.PrecomputeBytes
		if ms := float64(in.loadTime) / float64(time.Millisecond); ms > t.MaxLoadMillis {
			t.MaxLoadMillis = ms
		}
	}
	return t
}
