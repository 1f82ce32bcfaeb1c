package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"geoalign"
)

// encodeResult builds a binary /v1/align response body.
func encodeResult(target, weights []float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(target)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(weights)))
	for _, v := range append(append([]float64(nil), target...), weights...) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func TestCheckResponseCatchesOneFlippedFloat(t *testing.T) {
	want := &geoalign.Result{Target: []float64{1.5, 2.25, 3}, Weights: []float64{0.25, 0.75}}
	body := encodeResult(want.Target, want.Weights)
	if err := checkResponse(body, want); err != nil {
		t.Fatalf("intact response rejected: %v", err)
	}
	for i := 8; i < len(body); i += 8 {
		broken := append([]byte(nil), body...)
		broken[i] ^= 0x01 // lowest mantissa bit of one float
		if err := checkResponse(broken, want); err == nil {
			t.Errorf("flipping the float at byte %d went unnoticed", i)
		}
	}
	if err := checkResponse(body[:len(body)-8], want); err == nil {
		t.Error("truncated response accepted")
	}
}

func TestCheckMass(t *testing.T) {
	obj := []float64{10, 20, 30}
	degenerate := []bool{false, true, false}
	if err := checkMass([]float64{15, 25}, obj, degenerate); err != nil {
		t.Fatalf("mass-preserving target rejected: %v", err)
	}
	if err := checkMass([]float64{15, 25.001}, obj, degenerate); err == nil {
		t.Error("target with extra mass accepted")
	}
}

func TestCovered(t *testing.T) {
	root := span{Start: 0, End: 100}
	children := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(root, children); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
}

// TestCorruptedRunFails drives the whole benchmark briefly with one
// float flipped in each sampled response: the run must report the
// failed check and exit non-zero.
func TestCorruptedRunFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "serve-miss", "-seconds", "3", "-corrupt", "-workdir", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("corrupted run exited 0\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "check failed: objective") || !strings.Contains(stdout.String(), `"correct":false`) {
		t.Fatalf("corrupted run failed for another reason\nstdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}
