package snapshot_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/session"
	"repro/internal/snapshot"
)

// The graph section left in the repository is session.Mirror's edge table:
// these tests drive the Table part through it.

// TestGraphRoundTrip pins the mirror's edge table: canonical bytes
// regardless of insertion order, and exact edge/weight recovery.
func TestGraphRoundTrip(t *testing.T) {
	a, b := session.NewMirror(8), session.NewMirror(8)
	edges := [][3]int64{{0, 1, 5}, {2, 3, -7}, {1, 4, 9}, {0, 7, 1}}
	for i, e := range edges {
		r := edges[len(edges)-1-i] // b takes the edges in reverse order
		if err := errors.Join(a.Graph().Insert(int(e[0]), int(e[1]), e[2]), b.Graph().Insert(int(r[0]), int(r[1]), r[2])); err != nil {
			t.Fatal(err)
		}
	}
	enc := func(m *session.Mirror) []byte {
		e := snapshot.NewEncoder()
		m.Checkpoint(e)
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	da, db := enc(a), enc(b)
	if !bytes.Equal(da, db) {
		t.Error("same graph, different insertion order: bytes differ")
	}
	d, err := snapshot.NewDecoder(bytes.NewReader(da))
	if err != nil {
		t.Fatal(err)
	}
	got := session.NewMirror(8)
	if err := got.Restore(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.Graph().M() != a.Graph().M() {
		t.Fatalf("decoded %d edges, want %d", got.Graph().M(), a.Graph().M())
	}
	for _, e := range edges {
		w, ok := got.Graph().Weight(int(e[0]), int(e[1]))
		if !ok || w != e[2] {
			t.Errorf("edge {%d,%d}: weight %d/%v, want %d", e[0], e[1], w, ok, e[2])
		}
	}
}

// FuzzGraphDecode restores the mirror's edge table from arbitrary section
// contents: a corrupted count or edge triple must fail with a diagnostic
// error, never panic or allocate from an unvalidated count, and a rejected
// table leaves the mirror as it was.
func FuzzGraphDecode(f *testing.F) {
	mk := func(words []uint64) []byte {
		e := snapshot.NewEncoder()
		e.Begin(0x71) // the mirror's section
		for _, w := range words {
			e.U64(w)
		}
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(mk([]uint64{1, 0, 1, 5}))          // one valid edge {0,1} w=5
	f.Add(mk([]uint64{uint64(1) << 50}))     // huge count, empty body
	f.Add(mk([]uint64{2, 0, 1, 5, 0, 1, 5})) // duplicate edge
	f.Add(mk([]uint64{1, ^uint64(0), 3, 1})) // negative endpoint
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := snapshot.NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		m := session.NewMirror(8)
		if err := m.Graph().Insert(2, 5, 1); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(d); err != nil && (m.Graph().M() != 1 || !m.Graph().Has(2, 5)) {
			t.Fatalf("rejected table (%v) changed the mirror", err)
		}
	})
}
