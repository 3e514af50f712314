package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// The two hot bodies — a query's pairs and an update batch — are parsed by
// scanPairs and scanUpdates in one pass over the raw bytes, straight into
// the values the handlers use. They accept only the documented shapes
// (package doc, "# Request bodies"); at the first byte outside them they
// give up, and the same bytes go to encoding/json (jsonPairs, jsonUpdates),
// which decides every other body as the server always has. The fallback is
// also the reference FuzzWireDecode holds the scanner to.

// refusal is a request the wire layer turns away: its status and the
// diagnostic sent as the body.
type refusal struct {
	status int
	msg    string
}

func refuse(status int, format string, args ...any) *refusal {
	return &refusal{status, fmt.Sprintf(format, args...)}
}

func (rf *refusal) write(w http.ResponseWriter) { http.Error(w, rf.msg, rf.status) }

// wireBuf is one hot request's scratch, pooled across requests: the body,
// the decoded pairs, their answers and the response bytes, and a query's
// read op (the instance asked, wb.answer bound once, the reply channel). An
// update batch is not pooled, because the queue keeps it.
type wireBuf struct {
	body  bytes.Buffer
	pairs []core.Pair
	ans   []bool
	comps int
	out   []byte
	in    *instance
	query func() error
	done  chan error
}

var wireBufs = sync.Pool{New: func() any {
	wb := &wireBuf{done: make(chan error, 1)}
	wb.query = wb.answer
	return wb
}}

// maxPooledBody: a scratch grown past it by one outsized body is dropped,
// not pooled, so a rare 8 MB request does not stay resident.
const maxPooledBody = 1 << 20

func putWireBuf(wb *wireBuf) {
	if wb.body.Cap() <= maxPooledBody {
		wireBufs.Put(wb)
	}
}

// readBody reads r's body whole into wb.body. A body past maxBodyBytes is
// refused with 413, never cut short.
func (wb *wireBuf) readBody(w http.ResponseWriter, r *http.Request, what string) *refusal {
	wb.body.Reset()
	_, err := wb.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return refuse(http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, maxBodyBytes)
	case err != nil:
		return refuse(http.StatusBadRequest, "bad %s request: %v", what, err)
	}
	return nil
}

// --- decoding --------------------------------------------------------------

// decodeQuery parses a query body into dst[:0] and checks it: 400 for a
// body that is not a query or holds no pair, 422 naming the first pair that
// is not two integers in [0, n).
func decodeQuery(dst []core.Pair, body []byte, n int) ([]core.Pair, *refusal) {
	pairs, ok := scanPairs(dst[:0], body)
	if !ok {
		var rf *refusal
		if pairs, rf = jsonPairs(pairs[:0], body); rf != nil {
			return pairs, rf
		}
	}
	return pairs, checkPairs(pairs, n)
}

func checkPairs(pairs []core.Pair, n int) *refusal {
	if len(pairs) == 0 {
		return refuse(http.StatusBadRequest, "empty query batch")
	}
	for i, p := range pairs {
		if p.U < 0 || p.V < 0 || p.U >= n || p.V >= n {
			return refuse(http.StatusUnprocessableEntity, "pair %d: vertex outside [0,%d)", i, n)
		}
	}
	return nil
}

// decodeUpdates parses an update body into a fresh batch, each edge
// canonical: 400 for a body that is not a batch or holds no update, 413 for
// more than maxBatch updates, 422 naming the first update without an op, u
// and v or with an op other than insert or delete. Vertex range and
// self-loops are the admission mirror's to refuse.
func decodeUpdates(body []byte, maxBatch int) (graph.Batch, *refusal) {
	// Every update is one object, so the braces bound the batch.
	b := make(graph.Batch, 0, max(0, min(bytes.Count(body, []byte{'{'})-1, maxBatch)))
	if batch, ok := scanUpdates(b, body); ok {
		return batch, checkBatchLen(len(batch), maxBatch)
	}
	return jsonUpdates(b[:0], body, maxBatch)
}

func checkBatchLen(n, maxBatch int) *refusal {
	if n == 0 {
		return refuse(http.StatusBadRequest, "empty update batch")
	}
	if n > maxBatch {
		return refuse(http.StatusRequestEntityTooLarge, "batch of %d exceeds the instance's MaxBatch %d", n, maxBatch)
	}
	return nil
}

// The scanner is a set of functions over the body b and an index i into it.
// Each returns the index past what it consumed, or -1 at the first byte
// outside the grammar it parses; given -1 it returns -1, so a parse chains
// its steps and checks once. Nothing is unescaped: a key or op spelled with
// an escape never matches, and the body falls back.

// skip returns the index of the first byte at or after i that is not JSON
// whitespace.
func skip(b []byte, i int) int {
	for uint(i) < uint(len(b)) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// lit consumes the byte c after any whitespace.
func lit(b []byte, i int, c byte) int {
	if i = skip(b, i); uint(i) < uint(len(b)) && b[i] == c {
		return i + 1
	}
	return -1
}

// integer parses an optionally negative integer of 1 to 18 digits without a
// leading zero, so it always fits an int64.
func integer(b []byte, i int) (int64, int) {
	i = skip(b, i)
	neg := uint(i) < uint(len(b)) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; uint(i) < uint(len(b)) && b[i]-'0' <= 9; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 || (n > 1 && b[start] == '0') {
		return 0, -1
	}
	if neg {
		v = -v
	}
	return v, i
}

// str parses a string and returns its raw bytes.
func str(b []byte, i int) ([]byte, int) {
	if i = lit(b, i, '"'); i < 0 {
		return nil, -1
	}
	// A loop, not bytes.IndexByte: every string the scanner accepts is a
	// few bytes long.
	for j := i; j < len(b); j++ {
		if b[j] == '"' {
			return b[i:j], j + 1
		}
	}
	return nil, -1
}

// open consumes the head of {"<name>":[e,…]}: whitespace anywhere, the
// member optional, no other member. more reports whether an element
// follows.
func open(b []byte, name string) (i int, more bool) {
	if i = lit(b, 0, '{'); i < 0 {
		return -1, false
	}
	if j := lit(b, i, '}'); j >= 0 {
		return j, false
	}
	k, i := str(b, i)
	if i = lit(b, lit(b, i, ':'), '['); string(k) != name || i < 0 {
		return -1, false
	}
	if j := lit(b, i, ']'); j >= 0 {
		return lit(b, j, '}'), false
	}
	return i, true
}

// next consumes what follows an element: a comma before the next one, or
// the closing "]}". It stops there, as json.Decoder.Decode stops at the end
// of the first value.
func next(b []byte, i int) (int, bool) {
	if j := lit(b, i, ','); j >= 0 {
		return j, true
	}
	return lit(b, lit(b, i, ']'), '}'), false
}

// scanPairs parses {"pairs":[[u,v],…]}, appending to dst.
func scanPairs(dst []core.Pair, b []byte) ([]core.Pair, bool) {
	i, more := open(b, "pairs")
	for more {
		var u, v int64
		u, i = integer(b, lit(b, i, '['))
		v, i = integer(b, lit(b, i, ','))
		dst = append(dst, core.Pair{U: int(u), V: int(v)})
		i, more = next(b, lit(b, i, ']'))
	}
	return dst, i >= 0
}

// scanUpdates parses {"updates":[{…},…]}, appending to dst.
func scanUpdates(dst graph.Batch, b []byte) (graph.Batch, bool) {
	i, more := open(b, "updates")
	for more {
		var up graph.Update
		up, i = update(b, i)
		dst = append(dst, up)
		i, more = next(b, i)
	}
	return dst, i >= 0
}

// update parses {"op":"insert"|"delete","u":…,"v":…,"weight":…}: members
// in any order, each at most once, weight optional.
func update(b []byte, i int) (graph.Update, int) {
	var up graph.Update
	var u, v int64
	var seen uint8
	for i = lit(b, i, '{'); i >= 0; i = lit(b, i, ',') {
		k, j := str(b, i)
		i = lit(b, j, ':')
		var bit uint8
		switch string(k) {
		case "op":
			bit = 1
			var op []byte
			op, i = str(b, i)
			var ok bool
			if up.Op, ok = wireOp(string(op)); !ok {
				i = -1
			}
		case "u":
			bit = 2
			u, i = integer(b, i)
		case "v":
			bit = 4
			v, i = integer(b, i)
		case "weight":
			bit = 8
			up.Weight, i = integer(b, i)
		default:
			return up, -1
		}
		if seen&bit != 0 {
			return up, -1
		}
		seen |= bit
		if j := lit(b, i, '}'); j >= 0 {
			if seen&7 != 7 {
				return up, -1
			}
			up.Edge = graph.Edge{U: int(u), V: int(v)}.Canonical()
			return up, j
		}
	}
	return up, -1
}

// wireOp maps an op as the wire spells it onto graph.Op.
func wireOp(op string) (graph.Op, bool) {
	switch op {
	case "insert":
		return graph.Insert, true
	case "delete":
		return graph.Delete, true
	}
	return 0, false
}

// --- the encoding/json fallback --------------------------------------------

// The fallback decodes into slice and pointer shapes, not into the exported
// wire types, so a short or long pair, a null and a missing member are seen
// and refused rather than read as vertex 0.
type (
	jsonQuery struct {
		Pairs [][]*int `json:"pairs"`
	}
	jsonUpdate struct {
		Op     *string `json:"op"`
		U      *int    `json:"u"`
		V      *int    `json:"v"`
		Weight int64   `json:"weight"`
	}
	jsonBatch struct {
		Updates []*jsonUpdate `json:"updates"`
	}
)

func jsonPairs(dst []core.Pair, body []byte) ([]core.Pair, *refusal) {
	var req jsonQuery
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return dst, refuse(http.StatusBadRequest, "bad query request: %v", err)
	}
	for i, p := range req.Pairs {
		if len(p) != 2 || p[0] == nil || p[1] == nil {
			return dst, refuse(http.StatusUnprocessableEntity, "pair %d: want two integers [u,v]", i)
		}
		dst = append(dst, core.Pair{U: *p[0], V: *p[1]})
	}
	return dst, nil
}

func jsonUpdates(dst graph.Batch, body []byte, maxBatch int) (graph.Batch, *refusal) {
	var req jsonBatch
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return dst, refuse(http.StatusBadRequest, "bad update request: %v", err)
	}
	if rf := checkBatchLen(len(req.Updates), maxBatch); rf != nil {
		return dst, rf
	}
	for i, u := range req.Updates {
		if u == nil || u.Op == nil || u.U == nil || u.V == nil {
			return dst, refuse(http.StatusUnprocessableEntity, "update %d: want op, u and v", i)
		}
		op, ok := wireOp(*u.Op)
		if !ok {
			return dst, refuse(http.StatusUnprocessableEntity, "update %d: unknown op %q (want insert or delete)", i, *u.Op)
		}
		dst = append(dst, graph.Update{Op: op, Edge: graph.Edge{U: *u.U, V: *u.V}.Canonical(), Weight: u.Weight})
	}
	return dst, nil
}

// --- responses -------------------------------------------------------------

// appendQueryResponse appends QueryResponse{connected, comps} byte for byte
// as json.Encoder.Encode writes it, trailing newline included.
func appendQueryResponse(dst []byte, connected []bool, comps int) []byte {
	dst = append(dst, `{"connected":[`...)
	for i, c := range connected {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(dst, c)
	}
	dst = append(dst, `],"components":`...)
	dst = strconv.AppendInt(dst, int64(comps), 10)
	return append(dst, "}\n"...)
}

// appendUpdateResponse appends UpdateResponse{queued, depth} as
// json.Encoder.Encode writes it.
func appendUpdateResponse(dst []byte, queued, depth int) []byte {
	dst = append(dst, `{"queued":`...)
	dst = strconv.AppendInt(dst, int64(queued), 10)
	dst = append(dst, `,"queue_depth":`...)
	dst = strconv.AppendInt(dst, int64(depth), 10)
	return append(dst, "}\n"...)
}

// writeBody sends a JSON body built by one of the appenders with one Write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
