package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"geoalign"
	"geoalign/internal/serve"
)

// lockedBuffer is a bytes.Buffer a daemon goroutine can write while the
// test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadEngineFromCSV(t *testing.T) {
	dir := t.TempDir()
	// Two references over source units a,b,c; the second is missing
	// source c and adds target unit Z (exercising the key union).
	p1 := writeFile(t, dir, "pop.csv", strings.Join([]string{
		"source,target,population",
		"a,X,10", "a,Y,5", "b,Y,20", "c,X,7", "",
	}, "\n"))
	p2 := writeFile(t, dir, "jobs.csv", strings.Join([]string{
		"source,target,jobs",
		"a,X,3", "b,Z,9", "",
	}, "\n"))

	al, meta, err := loadEngine([]string{p1, p2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if al.SourceUnits() != 3 || al.TargetUnits() != 3 || al.References() != 2 {
		t.Fatalf("engine shape %d/%d/%d, want 3 sources, 3 targets, 2 references",
			al.SourceUnits(), al.TargetUnits(), al.References())
	}
	if strings.Join(meta.SourceKeys, " ") != "a b c" || strings.Join(meta.TargetKeys, " ") != "X Y Z" {
		t.Fatalf("meta keys %v / %v", meta.SourceKeys, meta.TargetKeys)
	}
	res, err := al.Align([]float64{6, 12, 3})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range res.Target {
		total += v
	}
	if diff := total - (6 + 12 + 3); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("aligned total %v, want volume preserved at 21", total)
	}

	if _, _, err := loadEngine([]string{filepath.Join(dir, "missing.csv")}, 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestRegisterEngineSnapshotDir pins the cold-start contract of
// -snapshot-dir: the first registration builds from crosswalks and
// persists <name>.snap, the second maps that file, and a corrupt file
// falls back to a rebuild that repairs it.
func TestRegisterEngineSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	xw := writeFile(t, dir, "pop.csv", strings.Join([]string{
		"source,target,population",
		"a,X,10", "a,Y,5", "b,Y,20", "c,X,7", "",
	}, "\n"))
	snapDir := t.TempDir()
	build := func() (*geoalign.Aligner, *geoalign.SnapshotMeta, error) {
		return loadEngine([]string{xw}, 1)
	}

	var log bytes.Buffer
	reg := serve.NewRegistry()
	if _, err := registerEngine(reg, "pop", snapDir, 1, nil, &log, build); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(snapDir, "pop.snap")
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("first registration did not persist the snapshot: %v", err)
	}
	if info := reg.List()[0]; info.FromSnapshot {
		t.Fatalf("first registration should be a build: %+v", info)
	}

	log.Reset()
	reg2 := serve.NewRegistry()
	if _, err := registerEngine(reg2, "pop", snapDir, 1, nil, &log, build); err != nil {
		t.Fatal(err)
	}
	info := reg2.List()[0]
	if !info.FromSnapshot || info.MappedBytes == 0 {
		t.Fatalf("second registration should map the snapshot: %+v", info)
	}
	if !strings.Contains(log.String(), "mapped") {
		t.Fatalf("log: %q", log.String())
	}

	// The mapped engine answers identically to a fresh build.
	built, _, err := build()
	if err != nil {
		t.Fatal(err)
	}
	lease, err := reg2.Acquire("pop")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	want, err := built.Align([]float64{6, 12, 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := lease.Aligner().Align([]float64{6, 12, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Target {
		if got.Target[i] != want.Target[i] {
			t.Fatalf("target[%d] %v != %v", i, got.Target[i], want.Target[i])
		}
	}

	// Corrupt the file: registration warns, rebuilds, and rewrites it.
	if err := os.WriteFile(snapPath, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	log.Reset()
	reg3 := serve.NewRegistry()
	if _, err := registerEngine(reg3, "pop", snapDir, 1, nil, &log, build); err != nil {
		t.Fatal(err)
	}
	if reg3.List()[0].FromSnapshot {
		t.Fatal("corrupt snapshot was somehow mapped")
	}
	if !strings.Contains(log.String(), "rebuilding from crosswalks") {
		t.Fatalf("log: %q", log.String())
	}
	reg4 := serve.NewRegistry()
	if _, err := registerEngine(reg4, "pop", snapDir, 1, nil, &log, build); err != nil {
		t.Fatal(err)
	}
	if !reg4.List()[0].FromSnapshot {
		t.Fatal("rebuild did not repair the snapshot file")
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, &out, &out); err == nil {
		t.Fatal("run with no engines succeeded")
	}
	if err := run(context.Background(), []string{"-engine", "noequals"}, &out, &out); err == nil {
		t.Fatal("bad engine spec accepted")
	}
	if err := run(context.Background(), []string{"-engine", "e=nope.csv"}, &out, &out); err == nil {
		t.Fatal("unreadable crosswalk accepted")
	}
}

// TestRunServesAndShutsDown boots the daemon on an ephemeral port with
// the demo engine, aligns one attribute over HTTP, then cancels the
// context and expects a clean exit.
func TestRunServesAndShutsDown(t *testing.T) {
	addrc := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrc <- a }
	defer func() { onListen = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-demo"}, &out, &out)
	}()

	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never started listening")
	}
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/v1/engines")
	if err != nil {
		t.Fatal(err)
	}
	var engines struct {
		Engines []struct {
			Name        string `json:"name"`
			SourceUnits int    `json:"source_units"`
		} `json:"engines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&engines); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(engines.Engines) != 1 || engines.Engines[0].Name != "demo" {
		t.Fatalf("engines = %+v", engines.Engines)
	}

	objective := make([]float64, engines.Engines[0].SourceUnits)
	for i := range objective {
		objective[i] = float64(i%13) + 1
	}
	body, _ := json.Marshal(map[string]any{"engine": "demo", "objective": objective})
	resp, err = http.Post(base+"/v1/align", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align status %d: %s", resp.StatusCode, raw)
	}
	var aligned struct {
		Target  []float64 `json:"target"`
		Weights []float64 `json:"weights"`
		Batched int       `json:"batched"`
	}
	if err := json.Unmarshal(raw, &aligned); err != nil {
		t.Fatal(err)
	}
	if len(aligned.Target) == 0 || len(aligned.Weights) != 3 || aligned.Batched < 1 {
		t.Fatalf("response shape: %d targets, %d weights, batched %d",
			len(aligned.Target), len(aligned.Weights), aligned.Batched)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}

// TestRunDeltaRepersistsSnapshot boots the daemon with -snapshot-every,
// applies deltas over HTTP, and checks the cadence: the second delta
// reports persisted=true and the on-disk snapshot then reloads to an
// engine matching the live post-delta state exactly.
func TestRunDeltaRepersistsSnapshot(t *testing.T) {
	snapDir := t.TempDir()
	addrc := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrc <- a }
	defer func() { onListen = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-demo",
			"-snapshot-dir", snapDir, "-snapshot-every", "2"}, &out, &out)
	}()
	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never started listening")
	}
	base := "http://" + addr.String()

	postDelta := func(body string) (persisted bool) {
		t.Helper()
		resp, err := http.Post(base+"/v1/engines/demo/delta", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta status %d: %s", resp.StatusCode, raw)
		}
		var dr struct {
			Persisted bool `json:"persisted"`
		}
		if err := json.Unmarshal(raw, &dr); err != nil {
			t.Fatal(err)
		}
		return dr.Persisted
	}
	if postDelta(`{"source_patches":[{"ref":0,"row":3,"value":77}]}`) {
		t.Fatal("first delta persisted; want every second")
	}
	if !postDelta(`{"source_patches":[{"ref":1,"row":5,"value":33}]}`) {
		t.Fatal("second delta did not persist the snapshot")
	}

	objective := make([]float64, 500)
	for i := range objective {
		objective[i] = float64(i%13) + 1
	}
	body, _ := json.Marshal(map[string]any{"engine": "demo", "objective": objective})
	resp, err := http.Post(base+"/v1/align", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align status %d: %s", resp.StatusCode, raw)
	}
	var live struct {
		Target []float64 `json:"target"`
	}
	if err := json.Unmarshal(raw, &live); err != nil {
		t.Fatal(err)
	}

	al, _, err := geoalign.OpenSnapshot(filepath.Join(snapDir, "demo.snap"), nil)
	if err != nil {
		t.Fatalf("reloading re-persisted snapshot: %v", err)
	}
	defer al.Close()
	want, err := al.Align(objective)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Target) != len(live.Target) {
		t.Fatalf("snapshot engine has %d targets, live %d", len(want.Target), len(live.Target))
	}
	for i := range want.Target {
		if want.Target[i] != live.Target[i] {
			t.Fatalf("target[%d]: snapshot %v != live %v", i, want.Target[i], live.Target[i])
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
}

func TestDemoEngine(t *testing.T) {
	al, meta, err := demoEngine(1)()
	if err != nil {
		t.Fatal(err)
	}
	if al.SourceUnits() != 500 || al.TargetUnits() != 40 || al.References() != 3 {
		t.Fatalf("demo shape %d/%d/%d", al.SourceUnits(), al.TargetUnits(), al.References())
	}
	if meta == nil || len(meta.SourceKeys) != 500 || len(meta.TargetKeys) != 40 {
		t.Fatalf("demo meta should carry synthetic unit keys, got %+v", meta)
	}
	if _, err := al.Align(make([]float64, 500)); err != nil {
		// An all-zero objective is still a valid (if degenerate) input.
		t.Fatalf("demo align: %v", err)
	}
}

func TestRunBadResultCacheBytes(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-demo", "-result-cache-bytes", "lots"}, &out, &out)
	if err == nil || !strings.Contains(err.Error(), "result-cache-bytes") {
		t.Fatalf("err = %v, want a -result-cache-bytes parse error", err)
	}
}

// TestRunPprofAndResultCache boots the daemon with the profiler on its
// own listener and the result cache enabled, then checks the pprof
// index answers, the serving address does NOT expose it, and a repeated
// align is served as a cache hit.
func TestRunPprofAndResultCache(t *testing.T) {
	addrc := make(chan net.Addr, 1)
	pprofc := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrc <- a }
	onPprofListen = func(a net.Addr) { pprofc <- a }
	defer func() { onListen, onPprofListen = nil, nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-demo",
			"-pprof-addr", "127.0.0.1:0", "-result-cache-bytes", "64MiB"}, &out, &out)
	}()
	var addr, pprofAddr net.Addr
	for addr == nil || pprofAddr == nil {
		select {
		case addr = <-addrc:
		case pprofAddr = <-pprofc:
		case err := <-done:
			t.Fatalf("run exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never started listening")
		}
	}
	base := "http://" + addr.String()

	resp, err := http.Get("http://" + pprofAddr.String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("serving address exposes the profiler")
	}

	objective := make([]float64, 500)
	for i := range objective {
		objective[i] = float64(i%13) + 1
	}
	body, _ := json.Marshal(map[string]any{"engine": "demo", "objective": objective})
	align := func() (string, []byte) {
		resp, err := http.Post(base+"/v1/align", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("align status %d: %s", resp.StatusCode, raw)
		}
		return resp.Header.Get("X-Geoalign-Cache"), raw
	}
	how1, first := align()
	how2, second := align()
	if how1 != "" || how2 != "hit" {
		t.Fatalf("cache headers %q then %q, want fresh then hit", how1, how2)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit bytes differ from the fresh solve")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
}

// TestRunCatalogSidecar boots the daemon with -snapshot-dir, checks the
// catalog sidecar lands next to the snapshots with the demo engine
// indexed as an edge, registers a table over HTTP, restarts, and
// expects the table back — the catalog survives the restart.
func TestRunCatalogSidecar(t *testing.T) {
	snapDir := t.TempDir()
	addrc := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrc <- a }
	defer func() { onListen = nil }()

	boot := func() (string, context.CancelFunc, chan error) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			var out bytes.Buffer
			done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-demo", "-snapshot-dir", snapDir}, &out, &out)
		}()
		select {
		case addr := <-addrc:
			return "http://" + addr.String(), cancel, done
		case err := <-done:
			t.Fatalf("run exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never started listening")
		}
		panic("unreachable")
	}
	stop := func(cancel context.CancelFunc, done chan error) {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v on shutdown", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("run did not exit")
		}
	}
	listTables := func(base string) (tables []string, edges []string) {
		t.Helper()
		resp, err := http.Get(base + "/v1/catalog/tables")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var listing struct {
			Tables []struct {
				Name string `json:"name"`
			} `json:"tables"`
			Edges []struct {
				Name       string `json:"name"`
				SourceType string `json:"source_type"`
			} `json:"edges"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
			t.Fatal(err)
		}
		for _, tb := range listing.Tables {
			tables = append(tables, tb.Name)
		}
		for _, e := range listing.Edges {
			edges = append(edges, e.Name)
		}
		return tables, edges
	}

	base, cancel, done := boot()
	sidecar := filepath.Join(snapDir, "catalog.idx")
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatalf("catalog sidecar not written at boot: %v", err)
	}
	if _, edges := listTables(base); len(edges) != 1 || edges[0] != "demo" {
		t.Fatalf("edges = %v, want the demo engine", edges)
	}

	// Register a table on the demo engine's source units and search it.
	keys := make([]string, 120)
	vals := make([]float64, 120)
	for i := range keys {
		keys[i] = fmt.Sprintf("src-%04d", i)
		vals[i] = float64(i)
	}
	body, _ := json.Marshal(map[string]any{
		"name": "steam", "unit_type": "zip", "keys": keys, "values": vals,
	})
	resp, err := http.Post(base+"/v1/catalog/tables", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register table: %d %s", resp.StatusCode, raw)
	}
	// A second table on the demo engine's target units: the candidate a
	// search around "steam" should reach through the demo edge.
	tgtKeys := make([]string, 40)
	for i := range tgtKeys {
		tgtKeys[i] = fmt.Sprintf("tgt-%02d", i)
	}
	body, _ = json.Marshal(map[string]any{"name": "income", "unit_type": "county", "keys": tgtKeys})
	resp, err = http.Post(base+"/v1/catalog/tables", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register income: %d %s", resp.StatusCode, raw)
	}
	resp, err = http.Get(base + "/v1/catalog/search?table=steam")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, raw)
	}
	var res struct {
		Candidates []struct {
			Table string `json:"table"`
			Chain []struct {
				Edge string `json:"edge"`
			} `json:"chain"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatalf("search over demo edge found nothing: %s", raw)
	}
	if res.Candidates[0].Table != "income" ||
		len(res.Candidates[0].Chain) != 1 || res.Candidates[0].Chain[0].Edge != "demo" {
		t.Fatalf("top candidate should chain to income over the demo edge: %s", raw)
	}
	stop(cancel, done)

	// Restart on the same directory: the registered tables are back.
	base, cancel, done = boot()
	defer stop(cancel, done)
	tables, edges := listTables(base)
	if len(tables) != 2 || tables[0] != "income" || tables[1] != "steam" {
		t.Fatalf("tables after restart = %v, want [income steam]", tables)
	}
	if len(edges) != 1 || edges[0] != "demo" {
		t.Fatalf("edges after restart = %v, want [demo]", edges)
	}
}

// TestRunClusterScaleOut is the binary-level warm-up protocol test:
// replica A boots the demo engine with a blob store (publishing its
// snapshot by digest), then replica B boots from A's live manifest with
// nothing but an empty blob directory — pulling the digest, mapping it,
// and registering the engine before it starts listening. B must then
// serve the demo engine bit-identically to A.
func TestRunClusterScaleOut(t *testing.T) {
	snapDir, blobA, blobB := t.TempDir(), t.TempDir(), t.TempDir()
	addrc := make(chan net.Addr, 2)
	onListen = func(a net.Addr) { addrc <- a }
	defer func() { onListen = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	doneA := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		doneA <- run(ctx, []string{"-addr", "127.0.0.1:0", "-demo",
			"-snapshot-dir", snapDir, "-blob-dir", blobA}, &out, &out)
	}()
	var addrA net.Addr
	select {
	case addrA = <-addrc:
	case err := <-doneA:
		t.Fatalf("replica A exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("replica A never started listening")
	}
	baseA := "http://" + addrA.String()

	// A's manifest names the demo engine by digest.
	resp, err := http.Get(baseA + "/v1/cluster/manifest")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Engines map[string]struct {
			Digest string `json:"digest"`
		} `json:"engines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if manifest.Engines["demo"].Digest == "" {
		t.Fatalf("replica A published no digest: %+v", manifest)
	}

	// Replica B: no -demo, no -snapshot-dir — only A's manifest.
	doneB := make(chan error, 1)
	var outB lockedBuffer
	go func() {
		doneB <- run(ctx, []string{"-addr", "127.0.0.1:0",
			"-blob-dir", blobB,
			"-manifest", baseA + "/v1/cluster/manifest",
			"-fetch-from", baseA}, &outB, &outB)
	}()
	var addrB net.Addr
	select {
	case addrB = <-addrc:
	case err := <-doneB:
		t.Fatalf("replica B exited early: %v\n%s", err, outB.String())
	case <-time.After(30 * time.Second):
		t.Fatal("replica B never started listening")
	}
	baseB := "http://" + addrB.String()

	// onListen fired after the manifest apply, so B is warm already.
	if !strings.Contains(outB.String(), "engines warm in") {
		t.Fatalf("replica B log missing warm-up line: %q", outB.String())
	}

	objective := make([]float64, 500)
	for i := range objective {
		objective[i] = float64(i%17) + 2
	}
	align := func(base string) []float64 {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"engine": "demo", "objective": objective})
		resp, err := http.Post(base+"/v1/align", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("align on %s: %d: %s", base, resp.StatusCode, raw)
		}
		var out struct {
			Target []float64 `json:"target"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out.Target
	}
	fromA, fromB := align(baseA), align(baseB)
	if len(fromA) == 0 || len(fromA) != len(fromB) {
		t.Fatalf("target lengths: A=%d B=%d", len(fromA), len(fromB))
	}
	for i := range fromA {
		if fromA[i] != fromB[i] {
			t.Fatalf("target[%d]: A %v != B %v (scale-out replica not bit-identical)", i, fromA[i], fromB[i])
		}
	}

	cancel()
	for _, done := range []chan error{doneA, doneB} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("replica did not exit after cancellation")
		}
	}
}
