package streamio

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/workload"
)

// read drains a whole stream through a Reader.
func read(r io.Reader) ([]graph.Batch, error) {
	return workload.Drain(workload.NewFuncSource(workload.Shape{Batches: -1, Updates: -1}, NewReader(r).Next))
}

// write serializes batches through a Writer.
func write(w io.Writer, batches []graph.Batch) error {
	sw := NewWriter(w)
	for _, b := range batches {
		if err := sw.WriteBatch(b); err != nil {
			return err
		}
	}
	return sw.Flush()
}

func TestReadBasic(t *testing.T) {
	in := `
# a comment
i 0 1
i 1 2 7
--
d 0 1
`
	batches, err := read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("batches = %d", len(batches))
	}
	if len(batches[0]) != 2 || batches[0][1].Weight != 7 {
		t.Errorf("batch 0 = %+v", batches[0])
	}
	if batches[1][0].Op != graph.Delete {
		t.Errorf("batch 1 op = %v", batches[1][0].Op)
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{
		"x 0 1",       // unknown op
		"i 0",         // too few fields
		"i 0 1 2 3",   // too many fields
		"i a 1",       // bad vertex
		"i 0 b",       // bad vertex
		"i 1 1",       // self loop
		"i 0 1 smoke", // bad weight
	} {
		if _, err := read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	gen := workload.NewChurn(workload.Config{N: 20, Seed: 1, MaxWeight: 9})
	var batches []graph.Batch
	for i := 0; i < 5; i++ {
		batches = append(batches, gen.Next(4))
	}
	var buf bytes.Buffer
	if err := write(&buf, batches); err != nil {
		t.Fatal(err)
	}
	got, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batches) {
		t.Fatalf("round trip: %d batches, want %d", len(got), len(batches))
	}
	for i := range batches {
		if len(got[i]) != len(batches[i]) {
			t.Fatalf("batch %d: %d updates, want %d", i, len(got[i]), len(batches[i]))
		}
		for j := range batches[i] {
			if got[i][j] != batches[i][j] {
				t.Errorf("batch %d update %d: %+v != %+v", i, j, got[i][j], batches[i][j])
			}
		}
	}
}

func TestRoundTripRandomized(t *testing.T) {
	prg := hash.NewPRG(7)
	for trial := 0; trial < 20; trial++ {
		gen := workload.NewChurn(workload.Config{N: 12, Seed: prg.Next(), MaxWeight: int64(prg.NextN(5))})
		var batches []graph.Batch
		for i := 0; i < int(prg.NextN(4))+1; i++ {
			if b := gen.Next(int(prg.NextN(5)) + 1); len(b) > 0 {
				batches = append(batches, b)
			}
		}
		var buf bytes.Buffer
		if err := write(&buf, batches); err != nil {
			t.Fatal(err)
		}
		got, err := read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(batches) {
			t.Fatalf("trial %d: %d batches, want %d", trial, len(got), len(batches))
		}
	}
}

func TestEmptyStream(t *testing.T) {
	batches, err := read(strings.NewReader("\n# nothing\n--\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 0 {
		t.Errorf("batches = %v", batches)
	}
}

// fmtReference is the Writer's format spelled with fmt, one Fprintf per
// update: what WriteBatch must write byte for byte.
func fmtReference(w io.Writer, batches []graph.Batch) {
	first := true
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		if !first {
			fmt.Fprintln(w, "--")
		}
		first = false
		for _, u := range b {
			op := "i"
			if u.Op == graph.Delete {
				op = "d"
			}
			if u.Weight != 0 {
				fmt.Fprintf(w, "%s %d %d %d\n", op, u.Edge.U, u.Edge.V, u.Weight)
			} else {
				fmt.Fprintf(w, "%s %d %d\n", op, u.Edge.U, u.Edge.V)
			}
		}
	}
}

// randomBatches draws batches of random updates, empty batches and
// negative, zero and extreme weights included.
func randomBatches(prg *hash.PRG, n int) []graph.Batch {
	weights := []int64{0, 1, -1, 64, -12345, math.MaxInt64, math.MinInt64}
	var batches []graph.Batch
	for i := 0; i < n; i++ {
		b := make(graph.Batch, prg.NextN(6))
		for j := range b {
			u, v := int(prg.NextN(1<<20)), int(prg.NextN(1<<20))
			b[j] = graph.Update{Op: graph.Op(prg.NextN(2)), Edge: graph.Edge{U: u, V: v}, Weight: int64(prg.Next())}
			if prg.NextN(2) == 0 {
				b[j].Weight = weights[prg.NextN(uint64(len(weights)))]
			}
		}
		batches = append(batches, b)
	}
	return batches
}

// TestWriterMatchesFmt holds WriteBatch to the fmt reference on random
// batches, byte for byte.
func TestWriterMatchesFmt(t *testing.T) {
	prg := hash.NewPRG(11)
	for trial := 0; trial < 50; trial++ {
		batches := randomBatches(prg, int(prg.NextN(8)))
		var got, want bytes.Buffer
		if err := write(&got, batches); err != nil {
			t.Fatal(err)
		}
		fmtReference(&want, batches)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: wrote\n%s\nfmt writes\n%s", trial, got.Bytes(), want.Bytes())
		}
	}
}

// BenchmarkWriteBatch writes 256-update batches through one Writer: after
// its scratch has grown once, a batch allocates nothing.
func BenchmarkWriteBatch(b *testing.B) {
	gen := workload.NewChurn(workload.Config{N: 4096, Seed: 5, MaxWeight: 64})
	batches := make([]graph.Batch, 16)
	for i := range batches {
		batches[i] = gen.Next(256)
	}
	w := NewWriter(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}
