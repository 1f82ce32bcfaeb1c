package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// bufPool recycles the transient byte buffers of the binary codec —
// request bodies and response frames run to hundreds of kilobytes at
// census scale, and per-request allocation of that size is measurable
// GC pressure under concurrent load. floatPool does the same for the
// objectives decoded from binary align bodies: the engine reads one
// only while AlignContext runs, so the handler returns it right after.
var bufPool, floatPool sync.Pool

// maxPooledBuf caps the capacity in bytes the pools will retain.
// Without the cap a single oversized request would park its buffer in
// a pool forever: getPooled discards any pooled buffer too small for
// the ask, so a pool converges monotonically toward its largest-ever
// tenant and the "recycled" memory grows without bound. Buffers above
// the cap are allocated and dropped like any other transient.
const maxPooledBuf = 4 << 20

func getBuf(n int) []byte       { return getPooled[byte](&bufPool, n) }
func putBuf(b []byte)           { putPooled(&bufPool, b, maxPooledBuf) }
func getFloats(n int) []float64 { return getPooled[float64](&floatPool, n) }
func putFloats(v []float64)     { putPooled(&floatPool, v, maxPooledBuf/8) }

// getPooled returns a length-n slice from p, allocating when the pool
// holds none large enough.
func getPooled[T any](p *sync.Pool, n int) []T {
	if b, ok := p.Get().([]T); ok {
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this ask but still a valid pool citizen for the
		// next smaller one; don't leak it out of circulation.
		p.Put(b[:0]) //nolint:staticcheck // slice header boxing is fine here
	}
	return make([]T, n)
}

// putPooled returns b to p unless its capacity exceeds maxCap elements.
func putPooled[T any](p *sync.Pool, b []T, maxCap int) {
	if cap(b) > maxCap {
		return
	}
	p.Put(b[:0]) //nolint:staticcheck // slice header boxing is fine here
}

// Wire formats. JSON is the default; clients that care about encode
// overhead can POST application/octet-stream instead:
//
//	request body:  ns little-endian float64s (the objective)
//	response body: uint32 nt, uint32 k, then nt target float64s and
//	               k weight float64s, all little-endian
//
// The binary response mirrors alignResponse minus the names.
const (
	contentTypeJSON   = "application/json"
	contentTypeBinary = "application/octet-stream"
)

// alignRequest is the JSON body of POST /v1/align. Engine may instead
// be given as the ?engine= query parameter (required for binary
// bodies).
type alignRequest struct {
	Engine    string    `json:"engine"`
	Objective []float64 `json:"objective"`
}

// alignResponse is the JSON body of a successful POST /v1/align.
type alignResponse struct {
	Engine  string    `json:"engine"`
	Target  []float64 `json:"target"`
	Weights []float64 `json:"weights"`
}

// batchRequest is the JSON body of POST /v1/align/batch.
type batchRequest struct {
	Engine     string      `json:"engine"`
	Objectives [][]float64 `json:"objectives"`
}

// batchResponse is the JSON body of a successful POST /v1/align/batch.
type batchResponse struct {
	Engine  string      `json:"engine"`
	Targets [][]float64 `json:"targets"`
	Weights [][]float64 `json:"weights"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// decodeFloats reinterprets a little-endian byte payload as float64s.
func decodeFloats(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("serve: binary payload of %d bytes is not a whole number of float64s", len(b))
	}
	out := make([]float64, len(b)/8)
	decodeFloatsInto(out, b)
	return out, nil
}

// decodeFloatsInto fills dst from a little-endian payload of
// 8·len(dst) bytes.
func decodeFloatsInto(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

// appendFloats appends v to dst in little-endian byte order.
func appendFloats(dst []byte, v []float64) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// appendBinaryResult appends the binary response framing for one
// aligned attribute to dst. This is the encode-once kernel shared by
// the streaming writer below and the result cache, which stores the
// framed bytes: binary never encodes JSON; JSON is encoded once per
// entry, from these bytes.
func appendBinaryResult(dst []byte, target, weights []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(target)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(weights)))
	dst = appendFloats(dst, target)
	return appendFloats(dst, weights)
}

// encodeBinaryResult writes the binary response framing for one aligned
// attribute through a pooled scratch buffer.
func encodeBinaryResult(w io.Writer, target, weights []float64) error {
	buf := appendBinaryResult(getBuf(8 + 8*(len(target)+len(weights)))[:0], target, weights)
	_, err := w.Write(buf)
	putBuf(buf)
	return err
}

// marshalJSONBody renders body exactly as writeJSON's json.Encoder
// would put it on the wire (trailing newline included), so cached JSON
// responses are byte-identical to uncached ones.
func marshalJSONBody(body any) ([]byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodeBinaryResult parses the framing written by encodeBinaryResult;
// the client half lives here so tests and callers share one definition.
func decodeBinaryResult(b []byte) (target, weights []float64, err error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("serve: binary response truncated at %d bytes", len(b))
	}
	nt := int(binary.LittleEndian.Uint32(b))
	k := int(binary.LittleEndian.Uint32(b[4:]))
	rest := b[8:]
	if len(rest) != 8*(nt+k) {
		return nil, nil, fmt.Errorf("serve: binary response body is %d bytes, want %d", len(rest), 8*(nt+k))
	}
	vals, err := decodeFloats(rest)
	if err != nil {
		return nil, nil, err
	}
	return vals[:nt:nt], vals[nt:], nil
}
