package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent names the span that caused this one (0 for a
// request's root). Times are nanoseconds since the recorder's base.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the traced run; they are written
// out once, after the timed phases.
type recorder struct {
	base time.Time
	ids  atomic.Int64
	mu   sync.Mutex
	all  []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.all = append(r.all, s)
	r.mu.Unlock()
}

// wrap records a span around every call into h. The request and parent
// span ids travel in the req and span query parameters, which the
// router forwards verbatim; with rewrite set, the wrapper replaces span
// with its own id so the next hop's span names this one as its parent.
func (r *recorder) wrap(name string, h http.Handler, rewrite bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		q := req.URL.Query()
		reqID, _ := strconv.ParseInt(q.Get("req"), 10, 64)
		parent, _ := strconv.ParseInt(q.Get("span"), 10, 64)
		id := r.newID()
		if rewrite && reqID != 0 {
			q.Set("span", strconv.FormatInt(id, 10))
			req.URL.RawQuery = q.Encode()
		}
		h.ServeHTTP(w, req)
		r.add(span{Name: name, ID: id, Parent: parent, Req: reqID, Start: r.at(start), End: r.at(time.Now())})
	})
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.all {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerBreakdown is what the spans of one phase say about where its
// requests' time went.
type layerBreakdown struct {
	routerSelfP50, transportP50, handlerP50 float64 // ms
	unexplainedFrac                         float64
	requests                                int
}

// byReq groups the recorded spans of the given requests.
func (r *recorder) byReq(reqs map[int64]bool) map[int64][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range r.all {
		if reqs[s.Req] {
			out[s.Req] = append(out[s.Req], s)
		}
	}
	return out
}

// replicaP50 is the median replica span, in ms, over the given requests.
func (r *recorder) replicaP50(reqs map[int64]bool) float64 {
	var d []float64
	for _, spans := range r.byReq(reqs) {
		for _, s := range spans {
			if s.Name == "serve.replica" {
				d = append(d, float64(s.dur())/1e6)
			}
		}
	}
	return median(d)
}

// breakdown derives per-layer numbers for the given requests. Router
// self time is the router span minus the replica span nested in it;
// transport is the client span (client.send, from send to last byte)
// minus the router span. Unexplained time is the part of the client
// span covered by none of the layer spans inside it: the body write,
// the router (which holds the replica) and the response read. The
// generator's own wait before sending lies outside the client span and
// is not counted.
func (r *recorder) breakdown(reqs map[int64]bool) layerBreakdown {
	var self, transport, handler []float64
	var sendTotal, uncovered int64
	for _, spans := range r.byReq(reqs) {
		var router, rep, send span
		var layers []span
		for _, s := range spans {
			switch s.Name {
			case "client.send":
				send = s
			case "cluster.router":
				router = s
				layers = append(layers, s)
			case "serve.replica":
				rep = s
				layers = append(layers, s)
			case "http.write", "http.read":
				layers = append(layers, s)
			}
		}
		if router.ID == 0 || rep.ID == 0 || send.ID == 0 {
			continue // failed before reaching every layer
		}
		self = append(self, float64(router.dur()-rep.dur())/1e6)
		transport = append(transport, float64(send.dur()-router.dur())/1e6)
		handler = append(handler, float64(rep.dur())/1e6)
		sendTotal += send.dur()
		uncovered += send.dur() - covered(send, layers)
	}
	b := layerBreakdown{
		routerSelfP50: median(self),
		transportP50:  median(transport),
		handlerP50:    median(handler),
		requests:      len(self),
	}
	if sendTotal > 0 {
		b.unexplainedFrac = float64(uncovered) / float64(sendTotal)
	}
	return b
}

// covered returns how much of root's interval the union of children
// covers; children may nest and overlap.
func covered(root span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	cur := root.Start
	for _, c := range children {
		s, e := max(c.Start, cur), min(c.End, root.End)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
