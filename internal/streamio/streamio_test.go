package streamio

import (
	"bytes"
	"io"
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
