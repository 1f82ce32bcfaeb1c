package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRunFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, &out); err == nil {
		t.Fatal("run with no replicas succeeded")
	}
	if err := run(context.Background(), []string{"-replica", "://bad"}, &out); err == nil {
		t.Fatal("bad replica URL accepted")
	}
}

// TestRunRoutesAndShutsDown boots the router over two stub replicas,
// routes an align through it, checks the cluster health view, and
// expects a clean exit on cancellation.
func TestRunRoutesAndShutsDown(t *testing.T) {
	stub := func() *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"status":"ok","engines":1}`)
		})
		mux.HandleFunc("POST /v1/align", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"engine":"demo","target":[1],"weights":[1]}`)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := stub(), stub()

	addrc := make(chan net.Addr, 1)
	onListen = func(ad net.Addr) { addrc <- ad }
	defer func() { onListen = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		done <- run(ctx, []string{"-addr", "127.0.0.1:0",
			"-replica", a.URL, "-replica", b.URL,
			"-probe-interval", "50ms"}, &out)
	}()
	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("router never started listening")
	}
	base := "http://" + addr.String()

	resp, err := http.Post(base+"/v1/align?engine=demo", "application/json",
		strings.NewReader(`{"objective":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align via router = %d", resp.StatusCode)
	}
	if shard := resp.Header.Get("X-Geoalign-Shard"); shard != a.URL && shard != b.URL {
		t.Fatalf("shard header %q names neither replica", shard)
	}

	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Replicas []struct {
			Healthy bool `json:"healthy"`
		} `json:"replicas"`
	}
	json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if health.Status != "ok" || len(health.Replicas) != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}
