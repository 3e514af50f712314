package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// referenceConvert is the converter as it read before lines were split in
// place: strings.TrimSpace and strings.Fields over Scanner.Text, strconv on
// the string fields, Go maps for the live edges and the batch's edges, and
// a FIFO kept at every window. FuzzConvertMatchesReference holds
// ConvertEdgeList to it.
func referenceConvert(r io.Reader, sink Sink, opt ConvertOptions) (ConvertStats, error) {
	if opt.BatchSize <= 0 {
		opt.BatchSize = DefaultConvertBatch
	}
	c := &refConverter{sink: sink, opt: opt, live: map[graph.Edge]int64{}, used: map[graph.Edge]bool{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		c.stats.Lines++
		if err := c.line(sc.Text()); err != nil {
			return c.stats, err
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return c.stats, fmt.Errorf("trace: convert: line %d: longer than %d bytes", c.stats.Lines+1, maxLineBytes)
		}
		return c.stats, fmt.Errorf("trace: convert: %w", err)
	}
	if err := c.flush(); err != nil {
		return c.stats, err
	}
	if c.stats.Updates == 0 {
		return c.stats, fmt.Errorf("trace: convert: no usable edges in %d input lines (%d duplicates, %d self-loops)",
			c.stats.Lines, c.stats.Duplicates, c.stats.SelfLoops)
	}
	return c.stats, nil
}

type refLiveEdge struct {
	e    graph.Edge
	t, w int64
}

type refConverter struct {
	sink   Sink
	opt    ConvertOptions
	stats  ConvertStats
	live   map[graph.Edge]int64
	fifo   []refLiveEdge
	batch  graph.Batch
	used   map[graph.Edge]bool
	lastT  int64
	anyT   bool
	fields int
}

func (c *refConverter) line(s string) error {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" || trimmed[0] == '#' || trimmed[0] == '%' {
		return nil
	}
	f := strings.Fields(trimmed)
	if c.fields == 0 {
		switch len(f) {
		case 2, 3, 4:
			c.fields = len(f)
		default:
			return fmt.Errorf("trace: convert: line %d: %d fields, want 2 (u v), 3 (u v t), or 4 (u v w t)", c.stats.Lines, len(f))
		}
	}
	if len(f) != c.fields {
		return fmt.Errorf("trace: convert: line %d: %d fields where the first data line had %d", c.stats.Lines, len(f), c.fields)
	}
	u, err := strconv.Atoi(f[0])
	if err != nil {
		return fmt.Errorf("trace: convert: line %d: bad vertex %q", c.stats.Lines, f[0])
	}
	v, err := strconv.Atoi(f[1])
	if err != nil {
		return fmt.Errorf("trace: convert: line %d: bad vertex %q", c.stats.Lines, f[1])
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("trace: convert: line %d: negative vertex in {%d,%d}", c.stats.Lines, u, v)
	}
	if u >= MaxVertices || v >= MaxVertices {
		return fmt.Errorf("trace: convert: line %d: vertex in {%d,%d} exceeds the format limit of %d", c.stats.Lines, u, v, MaxVertices)
	}
	var w int64
	t := int64(c.stats.Edges)
	switch c.fields {
	case 3:
		if t, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			return fmt.Errorf("trace: convert: line %d: bad timestamp %q", c.stats.Lines, f[2])
		}
	case 4:
		if w, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			return fmt.Errorf("trace: convert: line %d: bad weight %q", c.stats.Lines, f[2])
		}
		if w < 1 {
			return fmt.Errorf("trace: convert: line %d: weight %d, want >= 1", c.stats.Lines, w)
		}
		if t, err = strconv.ParseInt(f[3], 10, 64); err != nil {
			return fmt.Errorf("trace: convert: line %d: bad timestamp %q", c.stats.Lines, f[3])
		}
	}
	if c.anyT && t < c.lastT {
		return fmt.Errorf("trace: convert: line %d: timestamp %d after %d — input must be sorted by time (bounded-memory windowing needs non-decreasing timestamps)",
			c.stats.Lines, t, c.lastT)
	}
	c.lastT, c.anyT = t, true
	c.stats.Edges++
	if err := c.expire(t); err != nil {
		return err
	}
	if u == v {
		c.stats.SelfLoops++
		return nil
	}
	e := graph.NewEdge(u, v)
	if _, dup := c.live[e]; dup {
		c.stats.Duplicates++
		return nil
	}
	if m := e.V; m >= c.stats.N {
		c.stats.N = m + 1
	}
	if w != 0 {
		c.stats.Weighted = true
	}
	c.live[e] = w
	c.fifo = append(c.fifo, refLiveEdge{e: e, t: t, w: w})
	return c.emit(graph.Update{Op: graph.Insert, Edge: e, Weight: w})
}

func (c *refConverter) expire(t int64) error {
	if c.opt.Window <= 0 {
		return nil
	}
	for len(c.fifo) > 0 && c.fifo[0].t <= t-c.opt.Window {
		le := c.fifo[0]
		c.fifo = c.fifo[1:]
		if _, ok := c.live[le.e]; !ok {
			continue
		}
		delete(c.live, le.e)
		c.stats.Expired++
		if err := c.emit(graph.Update{Op: graph.Delete, Edge: le.e, Weight: le.w}); err != nil {
			return err
		}
	}
	return nil
}

func (c *refConverter) emit(up graph.Update) error {
	if len(c.batch) >= c.opt.BatchSize || c.used[up.Edge] {
		if err := c.flush(); err != nil {
			return err
		}
	}
	c.used[up.Edge] = true
	c.batch = append(c.batch, up)
	return nil
}

func (c *refConverter) flush() error {
	if len(c.batch) == 0 {
		return nil
	}
	if err := c.sink.WriteBatch(c.batch); err != nil {
		return err
	}
	c.stats.Batches++
	c.stats.Updates += len(c.batch)
	c.batch = nil
	clear(c.used)
	return nil
}

// FuzzConvertMatchesReference converts one input with ConvertEdgeList and
// with referenceConvert, at a BatchSize of 1 to 8 and a window that is off
// (≤ 0) or on, and requires the same batches, the same ConvertStats and the
// same error text. Its seeds are FuzzEdgeListConvert's, checked-in corpus
// included, plus the inputs where an in-place splitter and parser could
// part from strings.Fields and strconv: tabs, CRLF, a comment after
// leading white space, Unicode and invalid UTF-8 separators, signs,
// leading zeros and int64 overflow, and an edge re-inserted after it
// expired.
func FuzzConvertMatchesReference(f *testing.F) {
	seeds := []string{
		// FuzzEdgeListConvert's seeds.
		"0 1\n1 2\n2 0\n",
		"# comment\n0 1 0\n1 2 4\n0 1 9\n",
		"0 1 7 0\n1 2 3 5\n",
		"3 3\n0 1\n0 1\n",
		"0 1 5\n1 2 3\n",
		"x y\n",
		"",
		"0 1\n0 1 2 3 4 5\n",
		"-1 5\n",
		"0 1 0\n0 2 1\n0 3 2\n1 2 3\n1 3 9\n2 3 12\n",
		// Separators.
		"0\t1\t5\n1\t2\t6\n\t2 \t 3\t7\t\n",
		"0 1 0\r\n1 2 1\r\n\r\n2 3 2\r\n",
		"  # leading spaces\n\t% a tab\n \v\f0 1\n1 2\n",
		"0 1\n1\u00852\n",
		" # a comment after NBSP\n\u00850 1 \n",
		"0 1　2\n1 2 3\n",
		"0\xc21\n",
		"0 1\xa0\n",
		"0 1 \xc2\xa0\xe2\x80\n",
		// Numbers.
		"+1 2\n01 002\n",
		"9223372036854775808 1\n",
		"-9223372036854775808 1 2\n",
		"0 1 -9223372036854775808\n1 2 9223372036854775807\n",
		"0 1 9223372036854775808\n",
		"2147483647 2147483646\n2147483648 1\n",
		"0 1 1_0\n", "0 1 0x10\n", "- 1\n", "+ 1\n", "0 1 3 -2\n", "0 1 0 5\n",
		// Expiry and re-insertion, batches cut at touched edges.
		"0 1 0\n1 2 5\n0 1 10\n0 1 11\n1 2 20\n",
		"0 1 0\n0 2 0\n1 2 1\n0 1 4\n0 2 4\n0 1 9\n",
		"0 1 2 0\n1 2 3 1\n0 1 4 9\n0 1 4 9\n",
	}
	corpus := filepath.Join("testdata", "fuzz", "FuzzEdgeListConvert")
	files, err := os.ReadDir(corpus)
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(filepath.Join(corpus, file.Name()))
		if err != nil {
			f.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", file.Name(), err)
		}
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		for _, batch := range []uint8{0, 3, 7} {
			for _, window := range []int8{0, 3} {
				f.Add(s, batch, window)
			}
		}
	}

	f.Fuzz(func(t *testing.T, input string, batch uint8, window int8) {
		opt := ConvertOptions{BatchSize: 1 + int(batch%8), Window: int64(window)}
		var got, want sinkRecorder
		gotStats, gotErr := ConvertEdgeList(strings.NewReader(input), &got, opt)
		wantStats, wantErr := referenceConvert(strings.NewReader(input), &want, opt)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		if gotStats != wantStats {
			t.Fatalf("stats %+v, reference %+v", gotStats, wantStats)
		}
		if !reflect.DeepEqual(got.batches, want.batches) {
			t.Fatalf("batches %v, reference %v", got.batches, want.batches)
		}
	})
}
