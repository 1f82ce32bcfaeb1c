package serve

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoalign"
)

// solveGate holds chosen solves of a coalescer at their start until
// opened, so a test can keep an instance busy deterministically instead
// of racing a clock.
type solveGate struct {
	started atomic.Int64 // objectives whose solve has started
	held    atomic.Int64 // solves currently or formerly blocked by the gate
	release chan struct{}
	once    sync.Once
}

// holdSolves installs a gate on c that blocks every solve for which
// hold reports true. Install it before any traffic reaches c.
func holdSolves(c *Coalescer, hold func(in *Instance, n int) bool) *solveGate {
	g := &solveGate{release: make(chan struct{})}
	c.beforeSolve = func(in *Instance, n int) {
		g.started.Add(int64(n))
		if hold(in, n) {
			g.held.Add(1)
			<-g.release
		}
	}
	return g
}

// open lets every held solve, and every later one, run.
func (g *solveGate) open() { g.once.Do(func() { close(g.release) }) }

// fillSlots starts one send per solve slot of c in its own goroutine and
// returns once each of them is held at the gate; the returned group
// completes when the sends return.
func (g *solveGate) fillSlots(t *testing.T, c *Coalescer, send func(i int)) *sync.WaitGroup {
	t.Helper()
	before := g.held.Load()
	var wg sync.WaitGroup
	for i := 0; i < c.slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send(i)
		}(i)
	}
	waitFor(t, "every solve slot to be held", func() bool { return g.held.Load() == before+int64(c.slots) })
	return &wg
}

// newHeldServer is newTestServer with a solve gate installed before the
// listener starts.
func newHeldServer(t *testing.T, al *geoalign.Aligner, cfg Config, hold func(in *Instance, n int) bool) (*Server, *httptest.Server, *solveGate) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register("test", al); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, cfg)
	g := holdSolves(s.coal, hold)
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		g.open()
		hts.Close()
		s.Shutdown()
	})
	return s, hts, g
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// pendingObjectives counts the objectives waiting in pending batches.
func pendingObjectives(c *Coalescer) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ln := range c.lanes {
		if ln.pending != nil {
			n += len(ln.pending.objs)
		}
	}
	return n
}

// submitted is one Submit outcome.
type submitted struct {
	res  *geoalign.Result
	size int
	err  error
}

// submitAsync runs Submit in its own goroutine.
func submitAsync(c *Coalescer, in *Instance, obj []float64) <-chan submitted {
	out := make(chan submitted, 1)
	go func() {
		res, size, err := c.Submit(context.Background(), in, obj)
		out <- submitted{res, size, err}
	}()
	return out
}

// checkSubmitted compares one outcome against Align and the batch size
// it should have been carried in.
func checkSubmitted(t *testing.T, tag string, got submitted, al *geoalign.Aligner, obj []float64, size int) {
	t.Helper()
	if got.err != nil {
		t.Fatalf("%s: %v", tag, got.err)
	}
	if got.size != size {
		t.Errorf("%s: carried in a batch of %d, want %d", tag, got.size, size)
	}
	want, err := al.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(got.res.Target, want.Target) || !floatsEqual(got.res.Weights, want.Weights) {
		t.Errorf("%s: result differs from Align", tag)
	}
}

// TestCoalescerLoneRequest: a request on an idle instance solves at
// once in its own goroutine — no pending batch is opened and nothing
// waits for followers — and reports a batch of one.
func TestCoalescerLoneRequest(t *testing.T) {
	al := testAligner(t, 13, 60, 9, 3)
	reg := NewRegistry()
	if err := reg.Register("test", al); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{MaxBatch: 32})
	var sawPending atomic.Bool
	g := holdSolves(s.coal, func(in *Instance, n int) bool {
		if n != 1 || pendingObjectives(s.coal) != 0 {
			sawPending.Store(true)
		}
		return false
	})
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hts.Close()
		s.Shutdown()
	})
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5; i++ {
		obj := randObjective(rng, 60)
		out, resp := postAlign(t, hts.Client(), hts.URL, alignRequest{Engine: "test", Objective: obj})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if h := resp.Header.Get("X-Geoalign-Batch"); h != "1" || out.Batched != 1 {
			t.Fatalf("request %d: X-Geoalign-Batch %q, batched %d, want 1", i, h, out.Batched)
		}
		want, err := al.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !floatsEqual(out.Target, want.Target) || !floatsEqual(out.Weights, want.Weights) {
			t.Fatalf("request %d: response differs from Align", i)
		}
	}
	if sawPending.Load() {
		t.Fatal("a lone request on an idle instance went through a pending batch")
	}
	if g.started.Load() != 5 || s.Metrics().Batches() != 5 {
		t.Fatalf("%d objectives in %d solves, want 5 lone solves", g.started.Load(), s.Metrics().Batches())
	}
	s.coal.mu.Lock()
	lanes := len(s.coal.lanes)
	s.coal.mu.Unlock()
	if lanes != 0 {
		t.Fatalf("%d lanes left behind on an idle coalescer", lanes)
	}
}

// TestCoalescerBusyBatch: requests that arrive while every solve slot
// of the instance is busy wait in one pending batch, and the first slot
// to free runs all of them together in one follow-up batch.
func TestCoalescerBusyBatch(t *testing.T) {
	al := testAligner(t, 17, 70, 9, 3)
	s, hts, g := newHeldServer(t, al, Config{MaxBatch: 32}, func(_ *Instance, n int) bool { return n == 1 })
	rng := rand.New(rand.NewSource(9))
	post := func(obj []float64) (alignResponse, *http.Response) {
		return postAlign(t, hts.Client(), hts.URL, alignRequest{Engine: "test", Objective: obj})
	}
	held := g.fillSlots(t, s.coal, func(int) {
		if out, resp := post(randObjective(rand.New(rand.NewSource(1)), 70)); resp.StatusCode != http.StatusOK || out.Batched != 1 {
			t.Errorf("held lone request: status %d, batched %d", resp.StatusCode, out.Batched)
		}
	})

	const n = 5
	objs := make([][]float64, n)
	outs := make([]alignResponse, n)
	var wg sync.WaitGroup
	for i := range objs {
		objs[i] = randObjective(rng, 70)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, resp := post(objs[i])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			outs[i] = out
		}(i)
	}
	waitFor(t, "the busy-time arrivals to gather in one pending batch", func() bool { return pendingObjectives(s.coal) == n })
	g.open()
	wg.Wait()
	held.Wait()

	for i, out := range outs {
		if out.Batched != n {
			t.Errorf("request %d: batched %d, want %d", i, out.Batched, n)
		}
		want, err := al.Align(objs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !floatsEqual(out.Target, want.Target) || !floatsEqual(out.Weights, want.Weights) {
			t.Errorf("request %d: response differs from Align", i)
		}
	}
	if got, want := s.Metrics().Batches(), int64(s.coal.slots+1); got != want {
		t.Errorf("Batches = %d, want %d lone solves and one follow-up batch", got, want)
	}
}

// TestCoalescerShutdownAnswersPending: Shutdown runs the batch still
// waiting for a slot, so its waiters are answered rather than stranded,
// and refuses later submissions.
func TestCoalescerShutdownAnswersPending(t *testing.T) {
	al := testAligner(t, 19, 50, 8, 3)
	reg := NewRegistry()
	if err := reg.Register("e", al); err != nil {
		t.Fatal(err)
	}
	in, err := reg.AcquireInstance("e")
	if err != nil {
		t.Fatal(err)
	}
	defer in.release()
	c := newCoalescer(32, context.Background(), nil)
	g := holdSolves(c, func(_ *Instance, n int) bool { return n == 1 })
	rng := rand.New(rand.NewSource(10))

	heldObjs := make([][]float64, c.slots)
	heldOut := make([]<-chan submitted, c.slots)
	for i := range heldObjs {
		heldObjs[i] = randObjective(rng, 50)
		heldOut[i] = submitAsync(c, in, heldObjs[i])
	}
	waitFor(t, "every solve slot to be held", func() bool { return g.held.Load() == int64(c.slots) })

	const n = 3
	objs := make([][]float64, n)
	outs := make([]<-chan submitted, n)
	for i := range objs {
		objs[i] = randObjective(rng, 50)
		outs[i] = submitAsync(c, in, objs[i])
	}
	waitFor(t, "the arrivals to gather in one pending batch", func() bool { return pendingObjectives(c) == n })

	c.Shutdown()
	for i, out := range outs {
		checkSubmitted(t, "pending request", <-out, al, objs[i], n)
	}
	if _, _, err := c.Submit(context.Background(), in, objs[0]); err != ErrShuttingDown {
		t.Fatalf("Submit after Shutdown = %v, want ErrShuttingDown", err)
	}
	g.open()
	for i, out := range heldOut {
		checkSubmitted(t, "held request", <-out, al, heldObjs[i], 1)
	}
}

// TestCoalescerHotSwapSplitsGenerations: batches are per engine
// instance, so after a hot swap a request for the new generation never
// joins the old generation's pending batch — it takes its own instance's
// free slot at once — and the old batch carries only old-generation
// objectives, each answered by the old engine.
func TestCoalescerHotSwapSplitsGenerations(t *testing.T) {
	al1 := testAligner(t, 23, 60, 9, 3)
	al2 := testAligner(t, 24, 60, 9, 3)
	reg := NewRegistry()
	if err := reg.Register("e", al1); err != nil {
		t.Fatal(err)
	}
	in1, err := reg.AcquireInstance("e")
	if err != nil {
		t.Fatal(err)
	}
	defer in1.release()
	reg.Swap("e", al2)
	in2, err := reg.AcquireInstance("e")
	if err != nil {
		t.Fatal(err)
	}
	defer in2.release()
	if in1 == in2 || in2.Aligner() != al2 {
		t.Fatal("swap did not publish a new instance")
	}

	c := newCoalescer(32, context.Background(), nil)
	g := holdSolves(c, func(in *Instance, n int) bool { return in == in1 && n == 1 })
	rng := rand.New(rand.NewSource(11))
	heldObjs := make([][]float64, c.slots)
	heldOut := make([]<-chan submitted, c.slots)
	for i := range heldObjs {
		heldObjs[i] = randObjective(rng, 60)
		heldOut[i] = submitAsync(c, in1, heldObjs[i])
	}
	waitFor(t, "every old-generation slot to be held", func() bool { return g.held.Load() == int64(c.slots) })

	const n = 3
	objs := make([][]float64, n)
	outs := make([]<-chan submitted, n)
	for i := range objs {
		objs[i] = randObjective(rng, 60)
		outs[i] = submitAsync(c, in1, objs[i])
	}
	waitFor(t, "old-generation arrivals to gather", func() bool { return pendingObjectives(c) == n })

	// The new generation is idle: its request solves at once while the
	// old generation is still busy.
	fresh := randObjective(rng, 60)
	res, size, err := c.Submit(context.Background(), in2, fresh)
	checkSubmitted(t, "new-generation request", submitted{res, size, err}, al2, fresh, 1)
	if pendingObjectives(c) != n {
		t.Fatalf("pending objectives = %d after the new-generation request, want %d", pendingObjectives(c), n)
	}

	g.open()
	for i, out := range outs {
		checkSubmitted(t, "old-generation pending request", <-out, al1, objs[i], n)
	}
	for i, out := range heldOut {
		checkSubmitted(t, "old-generation held request", <-out, al1, heldObjs[i], 1)
	}
}
