package main

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"geoalign"
	"geoalign/internal/serve"
)

const deltaJSON = `{
  "row_patches":    [{"ref":0,"row":1,"cols":[0,1],"vals":[10000,22000]}],
  "source_patches": [{"ref":1,"row":2,"value":9}]
}`

// buildTestSnapshot runs `geoalign snapshot build` over the fixture
// crosswalks and returns the snapshot path.
func buildTestSnapshot(t *testing.T) string {
	t.Helper()
	_, pop, acc := fixture(t)
	snap := filepath.Join(t.TempDir(), "engine.snap")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"snapshot", "build", "-out", snap, "-ref", pop, "-ref", acc}, &stdout, &stderr); err != nil {
		t.Fatalf("snapshot build: %v\n%s", err, stderr.String())
	}
	return snap
}

func TestDeltaApplyOffline(t *testing.T) {
	snap := buildTestSnapshot(t)
	dir := t.TempDir()
	deltaPath := writeFile(t, dir, "delta.json", deltaJSON)
	outPath := filepath.Join(dir, "revised.snap")

	var stdout, stderr bytes.Buffer
	if err := run([]string{"delta", "apply", "-snapshot", snap, "-delta", deltaPath, "-out", outPath}, &stdout, &stderr); err != nil {
		t.Fatalf("delta apply: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "delta apply: ") {
		t.Fatalf("stdout: %q", stdout.String())
	}

	// The revised snapshot must answer exactly like ApplyDelta on the
	// original engine.
	orig, _, err := geoalign.OpenSnapshot(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	want, err := orig.ApplyDelta(geoalign.Delta{
		RowPatches:    []geoalign.RowPatch{{Ref: 0, Row: 1, Cols: []int{0, 1}, Vals: []float64{10000, 22000}}},
		SourcePatches: []geoalign.SourcePatch{{Ref: 1, Row: 2, Value: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	revised, _, err := geoalign.OpenSnapshot(outPath, nil)
	if err != nil {
		t.Fatalf("reopening revised snapshot: %v", err)
	}
	defer revised.Close()

	obj := []float64{5946, 8100, 3519}
	wantRes, err := want.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := revised.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRes.Target) != len(wantRes.Target) {
		t.Fatalf("shape: got %d targets, want %d", len(gotRes.Target), len(wantRes.Target))
	}
	for i := range wantRes.Target {
		if gotRes.Target[i] != wantRes.Target[i] {
			t.Fatalf("target[%d]: %v != %v", i, gotRes.Target[i], wantRes.Target[i])
		}
	}

	// The delta must actually have changed something.
	origRes, err := orig.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range origRes.Target {
		if origRes.Target[i] != gotRes.Target[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("revised snapshot answers identically to the original")
	}
}

func TestDeltaApplyHTTP(t *testing.T) {
	snap := buildTestSnapshot(t)
	al, _, err := geoalign.OpenSnapshot(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.RegisterOwned("fixture", al, 0); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(reg, serve.Config{})
	hts := httptest.NewServer(srv.Handler())
	defer func() {
		hts.Close()
		srv.Shutdown()
	}()

	dir := t.TempDir()
	deltaPath := writeFile(t, dir, "delta.json", deltaJSON)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"delta", "apply", "-server", hts.URL, "-engine", "fixture", "-delta", deltaPath}, &stdout, &stderr); err != nil {
		t.Fatalf("delta apply: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), `engine "fixture" now generation 2`) {
		t.Fatalf("stdout: %q", stdout.String())
	}
	if got := reg.Generation("fixture"); got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}

	// A delta the engine rejects surfaces the server's message.
	badPath := writeFile(t, dir, "bad.json", `{"source_patches":[{"ref":99,"row":0,"value":1}]}`)
	err = run([]string{"delta", "apply", "-server", hts.URL, "-engine", "fixture", "-delta", badPath}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "bad delta") {
		t.Fatalf("bad delta err = %v", err)
	}
}

func TestDeltaApplyValidation(t *testing.T) {
	dir := t.TempDir()
	deltaPath := writeFile(t, dir, "delta.json", deltaJSON)
	emptyPath := writeFile(t, dir, "empty.json", `{}`)
	junkPath := writeFile(t, dir, "junk.json", `{"row_patches": [{"nope": 1}]}`)
	var stdout, stderr bytes.Buffer
	for name, args := range map[string][]string{
		"no subcommand":   {"delta"},
		"unknown mode":    {"delta", "revert"},
		"no delta":        {"delta", "apply", "-server", "http://x"},
		"no mode":         {"delta", "apply", "-delta", deltaPath},
		"both modes":      {"delta", "apply", "-server", "http://x", "-snapshot", "a.snap", "-delta", deltaPath},
		"server no name":  {"delta", "apply", "-server", "http://x", "-delta", deltaPath},
		"snapshot no out": {"delta", "apply", "-snapshot", "a.snap", "-delta", deltaPath},
		"empty delta":     {"delta", "apply", "-server", "http://x", "-engine", "e", "-delta", emptyPath},
		"unknown fields":  {"delta", "apply", "-server", "http://x", "-engine", "e", "-delta", junkPath},
	} {
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
