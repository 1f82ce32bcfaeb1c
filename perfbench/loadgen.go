package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// connections is how many client connections the generator drives: one
// per CPU of the 2-core host the benchmark was sized on, so load and
// service share the machine the way a co-located client would.
const connections = 2

// One response in sampleEvery, up to maxSamples, is kept for the
// correctness checks.
const (
	sampleEvery = 37
	maxSamples  = 256
)

type eventKind uint8

const (
	evAlign eventKind = iota
	evDelta
)

// record is one request as the generator saw it. Times are nanoseconds
// since the generator's base; due is the scheduled send time, and
// latency is measured from it, so a stall delays every request queued
// behind it (no coordinated omission).
type record struct {
	due, send, end int64
	late           int64 // send minus max(due, connection free): the generator's own delay
	req            int64 // request id, carried in the query when traced
	kind           eventKind
	key            int64 // objective stamp (align) or delta index
	status         int   // HTTP status; 0 on a transport error
	shard          int
	gen            int // generation a delta ack reports
}

func (r record) ok() bool           { return r.status == http.StatusOK }
func (r record) latencyMs() float64 { return float64(r.end-r.due) / 1e6 }

// phaseSpec describes one load phase: open loop at rps, or closed loop
// (each connection sends its next request when the last one returns)
// when rps is 0.
type phaseSpec struct {
	name   string
	rps    float64
	dur    time.Duration
	event  func(i int) (eventKind, int64)
	traced bool
}

type phaseResult struct {
	spec         phaseSpec
	recs         []record
	reqLo, reqHi int64 // request ids [lo, hi) used by this phase
	start        int64 // ns since the generator's base
	elapsed      time.Duration
	cpu          time.Duration // process CPU time over the phase: generator, router and replicas
	gcCycles     uint32        // collections during the phase, where the caller counts them
}

// sample is a response body kept for the correctness checks.
type sample struct {
	key       int64
	shard     int
	send, end int64
	body      []byte
}

type conn struct {
	hc        *http.Client
	obj       []byte // the connection's objective buffer; element 0 is stamped per request
	resp      bytes.Buffer
	wrote     time.Time
	firstByte time.Time
	ctx       context.Context // carries the httptrace hooks when traced
}

// loadgen drives the router over exactly `connections` keep-alive
// connections, one per worker goroutine.
type loadgen struct {
	base     time.Time
	alignURL string
	deltaURL string
	shards   map[string]int
	deltas   [][]byte // JSON delta bodies, indexed by key
	rec      *recorder
	conns    []*conn
	cal      *calibrator
	nextReq  int64

	mu      sync.Mutex
	samples []sample
}

func newLoadgen(ctx context.Context, f *fleet, objective []float64, deltas [][]byte, rec *recorder, cal *calibrator) *loadgen {
	g := &loadgen{
		cal:      cal,
		base:     time.Now(),
		alignURL: f.url + "/v1/align?engine=" + engineName,
		deltaURL: f.url + "/v1/engines/" + engineName + "/delta",
		shards:   make(map[string]int),
		deltas:   deltas,
		rec:      rec,
		nextReq:  1,
	}
	if rec != nil {
		g.base = rec.base
	}
	for i, r := range f.replicas {
		g.shards[r.url] = i
	}
	raw := make([]byte, 8*len(objective))
	for i, v := range objective {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	for i := 0; i < connections; i++ {
		c := &conn{
			hc: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}},
			obj: append([]byte(nil), raw...),
			ctx: ctx,
		}
		if rec != nil {
			c.ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
				WroteRequest:         func(httptrace.WroteRequestInfo) { c.wrote = time.Now() },
				GotFirstResponseByte: func() { c.firstByte = time.Now() },
			})
		}
		g.conns = append(g.conns, c)
	}
	return g
}

// workCPU is the process CPU time so far, less what the calibration
// kernel used.
func (g *loadgen) workCPU() time.Duration {
	return processCPU() - time.Duration(g.cal.spent.Load())
}

func (g *loadgen) close() {
	for _, c := range g.conns {
		c.hc.CloseIdleConnections()
	}
}

func (g *loadgen) at(t time.Time) int64 { return int64(t.Sub(g.base)) }

// stampValue is the value written into element 0 of an objective to
// make it the key-th distinct objective: injective over keys and of the
// same magnitude as the generated values.
func stampValue(key int64) float64 { return 100 + float64(key)/64 }

// run executes one phase. Requests are numbered in schedule order and
// taken by whichever connection is free first, so the two connections
// serve one FIFO queue.
func (g *loadgen) run(ph phaseSpec) *phaseResult {
	n := 0
	if ph.rps > 0 {
		n = int(ph.rps * ph.dur.Seconds())
	}
	res := &phaseResult{spec: ph, reqLo: g.nextReq}
	if n > 0 {
		res.recs = make([]record, n)
	}
	var next atomic.Int64
	var mu sync.Mutex // guards res.recs appends in closed loop
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), g.workCPU()
	res.start = g.at(start)
	for _, c := range g.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				free := time.Now()
				due := free
				if ph.rps > 0 {
					if i >= n {
						return
					}
					due = start.Add(time.Duration(float64(i) / ph.rps * 1e9))
					sleepUntil(due)
				} else if free.Sub(start) >= ph.dur {
					return
				}
				kind, key := ph.event(i)
				r := g.do(c, kind, key, res.reqLo+int64(i), due, free, ph.traced)
				if ph.rps > 0 {
					res.recs[i] = r
				} else {
					mu.Lock()
					res.recs = append(res.recs, r)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = g.workCPU() - cpu0
	res.reqHi = res.reqLo + next.Load()
	g.nextReq = res.reqHi
	return res
}

func (g *loadgen) do(c *conn, kind eventKind, key, req int64, due, free time.Time, traced bool) record {
	url, sep, ctype, body := g.alignURL, "&", "application/octet-stream", c.obj
	if kind == evAlign {
		binary.LittleEndian.PutUint64(c.obj, math.Float64bits(stampValue(key)))
	} else {
		url, sep, ctype, body = g.deltaURL, "?", "application/json", g.deltas[key]
	}
	var rootID int64
	if traced {
		rootID = g.rec.newID()
		url += sep + "req=" + strconv.FormatInt(req, 10) + "&span=" + strconv.FormatInt(rootID, 10)
	}
	send := time.Now()
	r := record{
		due:  g.at(due),
		send: g.at(send),
		late: int64(send.Sub(laterOf(due, free))),
		req:  req,
		kind: kind,
		key:  key,
	}
	hreq, err := http.NewRequestWithContext(c.ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		r.end = g.at(time.Now())
		return r
	}
	hreq.Header.Set("Content-Type", ctype)
	resp, err := c.hc.Do(hreq)
	if err != nil {
		r.end = g.at(time.Now())
		return r
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	r.end = g.at(end)
	if err != nil {
		return r
	}
	r.status = resp.StatusCode
	r.shard = -1
	if i, ok := g.shards[resp.Header.Get("X-Geoalign-Shard")]; ok {
		r.shard = i
	}
	if r.ok() && kind == evDelta {
		var ack struct {
			Generation int `json:"generation"`
		}
		if json.Unmarshal(c.resp.Bytes(), &ack) != nil {
			r.status = 0 // an unreadable ack is a failed delta
		}
		r.gen = ack.Generation
	}
	if r.ok() && kind == evAlign && req%sampleEvery == 0 {
		g.mu.Lock()
		if len(g.samples) < maxSamples {
			g.samples = append(g.samples, sample{
				key: key, shard: r.shard, send: r.send, end: r.end,
				body: append([]byte(nil), c.resp.Bytes()...),
			})
		}
		g.mu.Unlock()
	}
	if traced {
		g.traceSpans(c, req, rootID, due, send, end)
	}
	return r
}

// traceSpans records the client-side spans of one request: the root
// (scheduled send to last byte), the generator's wait before sending,
// the body write and the response read as the client saw them.
func (g *loadgen) traceSpans(c *conn, req, rootID int64, due, send, end time.Time) {
	rec := g.rec
	add := func(name string, s, e time.Time) {
		if e.After(s) {
			rec.add(span{Name: name, ID: rec.newID(), Parent: rootID, Req: req, Start: rec.at(s), End: rec.at(e)})
		}
	}
	rec.add(span{Name: "request", ID: rootID, Req: req, Start: rec.at(due), End: rec.at(end)})
	add("loadgen.wait", due, send)
	add("client.send", send, end)
	add("http.write", send, c.wrote)
	add("http.read", c.firstByte, end)
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The
// runtime's timers wake an idle process with millisecond granularity,
// which would put up to 1ms of generator jitter into every sub-ms
// latency; the syscall wakes within the kernel's timer slack (~50µs).
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: loop re-checks the deadline
	}
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// phaseSummary condenses one phase for the report.
type phaseSummary struct {
	sent, ok, failed, shed int
	p50, p99               float64 // ms, over aligns only
	lateP50, lateP99       float64 // ms, generator lateness
	cpuMs                  float64 // process CPU ms per request sent, aligns and deltas together
	deltaLat               []float64
}

func summarize(p *phaseResult) phaseSummary {
	var s phaseSummary
	var lat, late []float64
	for _, r := range p.recs {
		s.sent++
		switch {
		case r.ok():
			s.ok++
			if r.kind == evAlign {
				lat = append(lat, r.latencyMs())
			} else {
				s.deltaLat = append(s.deltaLat, r.latencyMs())
			}
		case r.status == http.StatusTooManyRequests:
			s.shed++
		default:
			s.failed++
		}
		late = append(late, float64(r.late)/1e6)
	}
	s.p50, s.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	s.lateP50, s.lateP99 = quantile(late, 0.5), quantile(late, 0.99)
	if s.sent > 0 {
		s.cpuMs = 1000 * p.cpu.Seconds() / float64(s.sent)
	}
	return s
}

// windowRate splits a phase into consecutive windows of width w and
// returns the median rate of OK completions per second over the full
// windows.
func windowRate(p *phaseResult, w time.Duration) float64 {
	n := int(p.elapsed / w)
	if n == 0 {
		return float64(summarize(p).ok) / p.elapsed.Seconds()
	}
	counts := make([]float64, n)
	for _, r := range p.recs {
		if i := int((r.end - p.start) / int64(w)); r.ok() && i >= 0 && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}
