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
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

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
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "--" {
			if len(cur) > 0 {
				return cur, nil
			}
			continue
		}
		up, err := parseUpdate(line, r.line)
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

// parseUpdate parses one "op u v [w]" line.
func parseUpdate(line string, lineNo int) (graph.Update, error) {
	var zero graph.Update
	fields := strings.Fields(line)
	if len(fields) < 3 || len(fields) > 4 {
		return zero, fmt.Errorf("streamio: line %d: want 'op u v [w]', got %q", lineNo, line)
	}
	var op graph.Op
	switch fields[0] {
	case "i":
		op = graph.Insert
	case "d":
		op = graph.Delete
	default:
		return zero, fmt.Errorf("streamio: line %d: unknown op %q", lineNo, fields[0])
	}
	u, err := strconv.Atoi(fields[1])
	if err != nil {
		return zero, fmt.Errorf("streamio: line %d: bad vertex %q", lineNo, fields[1])
	}
	v, err := strconv.Atoi(fields[2])
	if err != nil {
		return zero, fmt.Errorf("streamio: line %d: bad vertex %q", lineNo, fields[2])
	}
	if u == v {
		return zero, fmt.Errorf("streamio: line %d: self loop", lineNo)
	}
	var w int64
	if len(fields) == 4 {
		w, err = strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return zero, fmt.Errorf("streamio: line %d: bad weight %q", lineNo, fields[3])
		}
	}
	return graph.Update{Op: op, Edge: graph.NewEdge(u, v), Weight: w}, nil
}

// Writer serializes a stream one batch at a time, in the format Reader
// accepts. Empty batches are skipped: the text format cannot represent them.
type Writer struct {
	bw      *bufio.Writer
	batches int
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// WriteBatch appends one batch (preceded by a separator when it is not the
// first). The batch is buffered; call Flush when done.
func (w *Writer) WriteBatch(b graph.Batch) error {
	if len(b) == 0 {
		return nil
	}
	if w.batches > 0 {
		if _, err := fmt.Fprintln(w.bw, "--"); err != nil {
			return err
		}
	}
	w.batches++
	for _, u := range b {
		op := "i"
		if u.Op == graph.Delete {
			op = "d"
		}
		var err error
		if u.Weight != 0 {
			_, err = fmt.Fprintf(w.bw, "%s %d %d %d\n", op, u.Edge.U, u.Edge.V, u.Weight)
		} else {
			_, err = fmt.Fprintf(w.bw, "%s %d %d\n", op, u.Edge.U, u.Edge.V)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }
