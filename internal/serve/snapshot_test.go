package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"geoalign"
)

// snapshotAligner round-trips a freshly built test aligner through a
// snapshot file, returning the mapped-back engine.
func snapshotAligner(tb testing.TB, dir string, seed int64, ns, nt, k int) *geoalign.Aligner {
	tb.Helper()
	built := testAligner(tb, seed, ns, nt, k)
	path := filepath.Join(dir, "engine.snap")
	if err := built.WriteSnapshot(path, nil); err != nil {
		tb.Fatal(err)
	}
	loaded, _, err := geoalign.OpenSnapshot(path, &geoalign.AlignerOptions{Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return loaded
}

// TestRegistryOwnedSwapDefersUnmap pins the hot-swap lifetime contract:
// a snapshot-backed instance swapped out while leased keeps its mapping
// until the last lease releases, and the registry unmaps it before
// Drained fires.
func TestRegistryOwnedSwapDefersUnmap(t *testing.T) {
	dir := t.TempDir()
	old := snapshotAligner(t, dir, 1, 80, 10, 3)
	reg := NewRegistry()
	if err := reg.RegisterOwned("us", old, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	lease, err := reg.Acquire("us")
	if err != nil {
		t.Fatal(err)
	}

	// Swap in a freshly built replacement while the old lease is live.
	retired := reg.Swap("us", testAligner(t, 2, 80, 10, 3))
	if retired == nil || retired.Aligner() != old {
		t.Fatal("Swap did not return the retired instance")
	}
	select {
	case <-retired.Drained():
		t.Fatal("retired instance drained while a lease was outstanding")
	default:
	}

	// The leased engine must still be fully usable: its mapping is live.
	if st := old.Stats(); !st.FromSnapshot || st.MappedBytes == 0 {
		t.Fatalf("old engine lost its mapping before drain: %+v", st)
	}
	obj := randObjective(rand.New(rand.NewSource(3)), lease.Aligner().SourceUnits())
	if _, err := lease.Aligner().Align(obj); err != nil {
		t.Fatalf("Align on retired-but-leased snapshot engine: %v", err)
	}

	lease.Release()
	select {
	case <-retired.Drained():
	case <-time.After(5 * time.Second):
		t.Fatal("retired instance never drained")
	}
	// closeDrained unmaps before closing the channel, so this is
	// immediately observable.
	if st := old.Stats(); st.MappedBytes != 0 {
		t.Fatalf("drained owned instance still mapped: %+v", st)
	}
}

func TestRegistryOwnedRemoveCloses(t *testing.T) {
	al := snapshotAligner(t, t.TempDir(), 4, 40, 8, 2)
	reg := NewRegistry()
	if err := reg.RegisterOwned("e", al, 0); err != nil {
		t.Fatal(err)
	}
	retired := reg.Remove("e")
	<-retired.Drained()
	if st := al.Stats(); st.MappedBytes != 0 {
		t.Fatal("Remove did not close the owned aligner")
	}
}

func TestEngineInfoAndMetricsSnapshotGauges(t *testing.T) {
	al := snapshotAligner(t, t.TempDir(), 5, 60, 12, 3)
	reg := NewRegistry()
	if err := reg.RegisterOwned("snap", al, 7*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("built", testAligner(t, 6, 60, 12, 3)); err != nil {
		t.Fatal(err)
	}

	infos := reg.List()
	if len(infos) != 2 {
		t.Fatalf("List: %d engines", len(infos))
	}
	byName := map[string]EngineInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	snap := byName["snap"]
	if !snap.FromSnapshot || snap.MappedBytes == 0 || snap.PrecomputeBytes == 0 || snap.LoadMillis != 7 {
		t.Fatalf("snapshot engine info: %+v", snap)
	}
	built := byName["built"]
	if built.FromSnapshot || built.MappedBytes != 0 || built.PrecomputeBytes == 0 {
		t.Fatalf("built engine info: %+v", built)
	}

	totals := reg.Totals()
	if totals.Engines != 2 || totals.SnapshotBacked != 1 {
		t.Fatalf("Totals: %+v", totals)
	}
	if totals.MappedBytes != snap.MappedBytes || totals.MaxLoadMillis != 7 {
		t.Fatalf("Totals: %+v", totals)
	}
	if totals.PrecomputeBytes != snap.PrecomputeBytes+built.PrecomputeBytes {
		t.Fatalf("Totals precompute: %+v", totals)
	}

	// The /metrics endpoint surfaces the same gauges.
	s := NewServer(reg, Config{})
	defer s.Shutdown()
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Engines struct {
			Registered          int     `json:"registered"`
			SnapshotBacked      int     `json:"snapshot_backed"`
			SnapshotMappedBytes int64   `json:"snapshot_mapped_bytes"`
			PrecomputeBytes     int64   `json:"precompute_bytes"`
			SnapshotLoadMaxMS   float64 `json:"snapshot_load_max_ms"`
		} `json:"engines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	e := body.Engines
	if e.Registered != 2 || e.SnapshotBacked != 1 || e.SnapshotMappedBytes != snap.MappedBytes ||
		e.PrecomputeBytes != totals.PrecomputeBytes || e.SnapshotLoadMaxMS != 7 {
		t.Fatalf("/metrics engines block: %+v", e)
	}
}
