// Package streamio reads and writes update streams in a plain text format,
// one update per line:
//
//	i <u> <v> [w]   insert edge {u,v} with optional weight w
//	d <u> <v> [w]   delete edge {u,v}
//	#               comment/blank lines are skipped
//	--              batch separator
//
// The text format is the repository's debug/interchange format: it is
// greppable, diffable, and hand-editable, which is what the golden-trace
// fixtures and the CI soak scripts want. It is not the at-scale format —
// multi-gigabyte traces belong in the segmented binary container of
// internal/trace, which adds per-segment checksums and a seekable index.
// Both formats replay through the same workload.BatchSource pull interface.
//
// Reader and Writer are incremental: a Reader yields one batch per Next
// call and a Writer serializes one batch per WriteBatch call, so streaming
// a trace through either end costs O(batch) memory. A consumer that needs
// the whole stream drains the Reader (workload.Drain).
package streamio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/graph"
)

// maxLineBytes bounds one input line. The default bufio.Scanner limit is
// 64KB, which a long comment or machine-generated wide line can silently
// exceed mid-file; the Reader raises the ceiling and, when even this is
// exceeded, names the offending line instead of returning a bare
// bufio.ErrTooLong.
const maxLineBytes = 16 << 20

// Reader parses a stream one batch at a time.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &Reader{sc: sc}
}

// Next returns the next non-empty batch, or io.EOF when the stream is
// exhausted. Errors name the offending line.
func (r *Reader) Next() (graph.Batch, error) {
	var cur graph.Batch
	var f [4][]byte
	for r.sc.Scan() {
		r.line++
		line := r.sc.Bytes()
		n := Fields(line, f[:])
		if n == 0 || f[0][0] == '#' {
			continue
		}
		if n == 1 && string(f[0]) == "--" {
			if len(cur) > 0 {
				return cur, nil
			}
			continue
		}
		up, err := parseUpdate(line, f[:min(n, len(f))], n, r.line)
		if err != nil {
			return nil, err
		}
		cur = append(cur, up)
	}
	if err := r.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("streamio: line %d: longer than %d bytes", r.line+1, maxLineBytes)
		}
		return nil, fmt.Errorf("streamio: line %d: %w", r.line+1, err)
	}
	if len(cur) > 0 {
		return cur, nil
	}
	return nil, io.EOF
}

// parseUpdate parses one "op u v [w]" line whose first fields are f and
// whose field count is n.
func parseUpdate(line []byte, f [][]byte, n, lineNo int) (graph.Update, error) {
	var zero graph.Update
	if n < 3 || n > 4 {
		return zero, fmt.Errorf("streamio: line %d: want 'op u v [w]', got %q", lineNo, bytes.TrimSpace(line))
	}
	var op graph.Op
	switch string(f[0]) {
	case "i":
		op = graph.Insert
	case "d":
		op = graph.Delete
	default:
		return zero, fmt.Errorf("streamio: line %d: unknown op %q", lineNo, f[0])
	}
	u, ok := ParseInt(f[1])
	if !ok {
		return zero, fmt.Errorf("streamio: line %d: bad vertex %q", lineNo, f[1])
	}
	v, ok := ParseInt(f[2])
	if !ok {
		return zero, fmt.Errorf("streamio: line %d: bad vertex %q", lineNo, f[2])
	}
	if u == v {
		return zero, fmt.Errorf("streamio: line %d: self loop", lineNo)
	}
	var w int64
	if n == 4 {
		if w, ok = ParseInt(f[3]); !ok {
			return zero, fmt.Errorf("streamio: line %d: bad weight %q", lineNo, f[3])
		}
	}
	return graph.Update{Op: op, Edge: graph.NewEdge(int(u), int(v)), Weight: w}, nil
}

// Fields splits line where strings.Fields splits it: around each run of
// white space as unicode.IsSpace defines it, a byte at or above 0x80
// decoded as UTF-8 (an invalid byte is a one-byte non-space, as ranging
// over a string reads it). It stores the first len(f) fields in f, each a
// subslice of line, and returns how many fields the line has. So a line
// is blank when it has none, and strings.TrimSpace of it starts with the
// first field's first byte.
func Fields(line []byte, f [][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		c, w := line[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = c == ' ' || c-'\t' <= '\r'-'\t'
		} else {
			var r rune
			r, w = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			if n < len(f) {
				f[n] = line[start:i]
			}
			n, start = n+1, -1
		case !space && start < 0:
			start = i
		}
		i += w
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n
}

// ParseInt parses b as strconv.ParseInt(string(b), 10, 64) does — an
// optional sign, then one or more decimal digits, within the int64 range —
// without allocating. ok is false wherever ParseInt returns an error.
func ParseInt(b []byte) (x int64, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '+' || neg) {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const limit = 1 << 63 // the magnitude of math.MinInt64
	var m uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 || m > limit/10 {
			return 0, false
		}
		if m = m*10 + uint64(d); m > limit {
			return 0, false
		}
	}
	if neg {
		return -int64(m), true // m == limit wraps to math.MinInt64, as it should
	}
	if m == limit {
		return 0, false
	}
	return int64(m), true
}

// Writer serializes a stream one batch at a time, in the format Reader
// accepts. Empty batches are skipped: the text format cannot represent them.
type Writer struct {
	bw      *bufio.Writer
	batches int
	// line is the scratch one batch is formatted into, reused across
	// batches.
	line []byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// WriteBatch appends one batch (preceded by a separator when it is not the
// first). The batch is formatted with strconv into the Writer's scratch and
// buffered; call Flush when done.
func (w *Writer) WriteBatch(b graph.Batch) error {
	if len(b) == 0 {
		return nil
	}
	out := w.line[:0]
	if w.batches > 0 {
		out = append(out, "--\n"...)
	}
	w.batches++
	for _, u := range b {
		op := byte('i')
		if u.Op == graph.Delete {
			op = 'd'
		}
		out = append(out, op, ' ')
		out = strconv.AppendInt(out, int64(u.Edge.U), 10)
		out = append(out, ' ')
		out = strconv.AppendInt(out, int64(u.Edge.V), 10)
		if u.Weight != 0 {
			out = append(out, ' ')
			out = strconv.AppendInt(out, u.Weight, 10)
		}
		out = append(out, '\n')
	}
	w.line = out
	_, err := w.bw.Write(out)
	return err
}

func (w *Writer) Flush() error { return w.bw.Flush() }
