package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/oracle"
	"repro/internal/snapshot"
)

// TestAbsentUpdatesRefused is the probe of ApplyBatch's precondition: at
// N=16, deleting the absent edge {0,1} (three times, in three batches) and
// inserting the present {2,3} each return an error naming the edge, leave
// every list as it was — the sketches still match the graph's dense twin —
// and drop the journal, so the next checkpoint is a full one.
func TestAbsentUpdatesRefused(t *testing.T) {
	dc, err := NewDynamicConnectivity(Config{N: 16, Phi: 0.6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(16)
	live := graph.Batch{graph.Ins(2, 3), graph.Ins(3, 4)}
	if err := dc.ApplyBatch(live); err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(live); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		b    graph.Batch
		want string
	}{
		{graph.Batch{graph.Del(0, 1)}, "deletes the absent edge {0,1} (2 endpoint update(s) refused)"},
		{graph.Batch{graph.Del(0, 1)}, "deletes the absent edge {0,1}"},
		{graph.Batch{graph.Ins(5, 6), graph.Del(0, 1)}, "deletes the absent edge {0,1}"},
		{graph.Batch{graph.Ins(2, 3)}, "inserts the present edge {2,3} (2 endpoint update(s) refused)"},
	} {
		err := dc.ApplyBatch(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("batch %d %v: err = %v, want one containing %q", i, tc.b, err, tc.want)
		}
		if dc.CheckpointDelta(snapshot.NewEncoder()) {
			t.Fatalf("batch %d: a failed batch left its journal in place", i)
		}
		// A failed batch may be applied in part: the insertion of {5,6}
		// before the refused deletion went through.
		for _, u := range tc.b {
			if u.Op == graph.Insert && !g.Has(u.Edge.U, u.Edge.V) {
				if err := g.Insert(u.Edge.U, u.Edge.V, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := dc.CheckSketches(g); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		dc.AckCheckpoint()
	}
}

// TestSketchesMatchDenseTwin replays the three golden streams at
// parallelism 1 and 8 and, after every batch, holds every vertex's sketch —
// a list vertex's computed from its list, as a search sums it — to the dense
// sketch of its edges built by Update edge by edge (CheckSketches).
func TestSketchesMatchDenseTwin(t *testing.T) {
	for _, stream := range []string{"testdata/churn32.stream", "../harness/testdata/window64.stream", "../harness/testdata/powerlaw64.stream"} {
		batches, n := readStream(t, stream)
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", stream, p), func(t *testing.T) {
				dc, err := NewDynamicConnectivity(Config{N: n, Phi: 0.6, Seed: 1, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				g := graph.New(n)
				for i, b := range batches {
					for j := 0; j < len(b); j += dc.MaxBatch() {
						chunk := b[j:min(j+dc.MaxBatch(), len(b))]
						if err := dc.ApplyBatch(chunk); err != nil {
							t.Fatalf("batch %d: %v", i, err)
						}
						if err := g.Apply(chunk); err != nil {
							t.Fatal(err)
						}
						if err := dc.CheckSketches(g); err != nil {
							t.Fatalf("batch %d: %v", i, err)
						}
					}
				}
			})
		}
	}
}

// TestPromotion drives vertices across the promotion point S on a star and
// on churn around a few hubs, with three sketch copies so that S = 96 words
// at N = 128: a vertex keeps its list up to S edges, is promoted at the
// edge past them, and stays promoted when its degree falls again. After
// every batch the sketches match their dense twins and the components the
// oracle's; the state survives a full checkpoint, re-saved byte for byte,
// and a reshard onto another fleet shape, with the same promoted vertices
// and every list laid out with room to grow.
func TestPromotion(t *testing.T) {
	const n = 128
	cfg := Config{N: n, Phi: 0.6, Seed: 9, SketchCopies: 3, VerticesPerMachine: 16}
	check := func(t *testing.T, dc *DynamicConnectivity, g *graph.Graph) {
		t.Helper()
		if err := dc.CheckSketches(g); err != nil {
			t.Fatal(err)
		}
		if got, want := dc.SnapshotComponents(), oracle.Components(g); !slices.Equal(got, want) {
			t.Fatalf("components %v, oracle %v", got, want)
		}
	}
	apply := func(t *testing.T, dc *DynamicConnectivity, g *graph.Graph, b graph.Batch) {
		t.Helper()
		for len(b) > 0 {
			k := min(len(b), dc.MaxBatch())
			if err := dc.ApplyBatch(b[:k]); err != nil {
				t.Fatal(err)
			}
			if err := g.Apply(b[:k]); err != nil {
				t.Fatal(err)
			}
			check(t, dc, g)
			b = b[k:]
		}
	}
	roundTrip := func(t *testing.T, dc *DynamicConnectivity, g *graph.Graph) {
		t.Helper()
		var saved bytes.Buffer
		if err := snapshot.Save(&saved, dc); err != nil {
			t.Fatal(err)
		}
		for _, vpm := range []int{16, 40} {
			other := cfg
			other.VerticesPerMachine = vpm
			loaded, err := NewDynamicConnectivity(other)
			if err != nil {
				t.Fatal(err)
			}
			if err := snapshot.Load(bytes.NewReader(saved.Bytes()), loaded); err != nil {
				t.Fatalf("load at %d vertices/machine: %v", vpm, err)
			}
			if got, want := loaded.promotedVertices(), dc.promotedVertices(); !slices.Equal(got, want) {
				t.Fatalf("load at %d vertices/machine promoted %v, the source %v", vpm, got, want)
			}
			// Every loaded list has room for its next inserts (listSlack),
			// short of S: the first insert after a load lands in place.
			for m := range loaded.f.cl.Machines() {
				if sh := sShard(loaded.f.cl.Machine(m)); sh != nil {
					for i, l := range sh.edges {
						if want := min(len(l)+max(2, len(l)/4), 96); sh.slot[i] < 0 && cap(l) != want {
							t.Fatalf("load at %d vertices/machine: vertex %d's list of %d edges has capacity %d, want %d", vpm, sh.lo+i, len(l), cap(l), want)
						}
					}
				}
			}
			var again bytes.Buffer
			if err := snapshot.Save(&again, loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), saved.Bytes()) {
				t.Fatalf("load at %d vertices/machine re-saves %d bytes, the source %d", vpm, again.Len(), saved.Len())
			}
			check(t, loaded, g)
		}
	}
	newInstance := func(t *testing.T) (*DynamicConnectivity, *graph.Graph) {
		t.Helper()
		dc, err := NewDynamicConnectivity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s := dc.space.SketchWords(); s != 96 {
			t.Fatalf("S = %d words, want 96", s)
		}
		return dc, graph.New(n)
	}

	t.Run("star", func(t *testing.T) {
		dc, g := newInstance(t)
		const s = 96
		var b graph.Batch
		for v := 1; v <= s; v++ {
			b = append(b, graph.Ins(0, v))
		}
		apply(t, dc, g, b)
		if got := dc.promotedVertices(); len(got) != 0 {
			t.Fatalf("a hub of degree S = %d promoted: %v", s, got)
		}
		roundTrip(t, dc, g)
		apply(t, dc, g, graph.Batch{graph.Ins(0, s+1)})
		if got := dc.promotedVertices(); !slices.Equal(got, []int{0}) {
			t.Fatalf("a hub of degree S+1: promoted %v, want [0]", got)
		}
		// Tree spokes go, so searches sum the hub's sketch; it stays one.
		apply(t, dc, g, graph.Batch{graph.Ins(1, 2), graph.Del(0, 1), graph.Del(0, 2), graph.Del(0, s+1)})
		if got := dc.promotedVertices(); !slices.Equal(got, []int{0}) {
			t.Fatalf("a hub below S again: promoted %v, want [0]", got)
		}
		roundTrip(t, dc, g)
	})

	t.Run("hubs", func(t *testing.T) {
		dc, g := newInstance(t)
		prg := hash.NewPRG(3)
		hubs := []int{0, 1}
		// Twenty batches shower the hubs with spokes and remove a few earlier
		// ones, tree edges among them, so the hubs climb past S while
		// searches sum them; ten more only remove spokes, so they fall back
		// below it.
		for round := range 30 {
			var b graph.Batch
			pending := map[graph.Edge]bool{}
			for range 32 {
				hub := hubs[prg.NextN(uint64(len(hubs)))]
				v := int(prg.NextN(n))
				if v == hub {
					continue
				}
				e := graph.NewEdge(hub, v)
				if pending[e] {
					continue
				}
				pending[e] = true
				switch {
				case g.Has(e.U, e.V) && (round >= 20 || prg.NextN(4) == 0):
					b = append(b, graph.Del(e.U, e.V))
				case !g.Has(e.U, e.V) && round < 20:
					b = append(b, graph.Ins(e.U, e.V))
				}
			}
			apply(t, dc, g, b)
		}
		promoted := dc.promotedVertices()
		if len(promoted) == 0 {
			t.Fatalf("no hub reached S = 96 edges (degrees %d, %d)", g.Degree(0), g.Degree(1))
		}
		below := 0
		for _, h := range promoted {
			if g.Degree(h) <= 96 {
				below++
			}
		}
		if below == 0 || dc.SearchStats().Searches == 0 {
			t.Fatalf("promoted %v, %d of them at or below S again, after %d searches: the churn never took a promoted hub back below S through searches",
				promoted, below, dc.SearchStats().Searches)
		}
		roundTrip(t, dc, g)
	})
}

// TestLoadRejectsSketchWordPastPrime saves an instance whose hub is
// promoted, then edits one word of the hub's sketch row past the CRC, as
// FuzzLoadPastTheCRC's corpus entries do: adding p keeps the word's value
// mod p but takes it out of the field, where a sum can wrap at 2^64. The
// loader rejects it, naming the row, before anything is installed.
func TestLoadRejectsSketchWordPastPrime(t *testing.T) {
	cfg := Config{N: 128, Phi: 0.6, Seed: 9, SketchCopies: 3, VerticesPerMachine: 16}
	dc, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var star graph.Batch
	for v := 1; v <= dc.space.SketchWords()+1; v++ {
		star = append(star, graph.Ins(0, v))
	}
	for len(star) > 0 {
		k := min(len(star), dc.MaxBatch())
		if err := dc.ApplyBatch(star[:k]); err != nil {
			t.Fatal(err)
		}
		star = star[k:]
	}
	if got := dc.promotedVertices(); !slices.Equal(got, []int{0}) {
		t.Fatalf("promoted %v, want [0]", got)
	}
	var saved bytes.Buffer
	if err := snapshot.Save(&saved, dc); err != nil {
		t.Fatal(err)
	}
	data := saved.Bytes()
	hub, _ := sShard(dc.f.cl.Machine(dc.f.part.Owner(0))).promoted(0)
	var cells []byte
	for _, w := range hub.Cells() {
		cells = binary.LittleEndian.AppendUint64(cells, w)
	}
	at := bytes.Index(data, cells)
	if at < 0 || at != bytes.LastIndex(data, cells) {
		t.Fatalf("the hub's sketch words are not in the container once (at %d)", at)
	}
	binary.LittleEndian.PutUint64(data[at:], binary.LittleEndian.Uint64(data[at:])+hash.Prime)
	binary.LittleEndian.PutUint64(data[len(data)-8:], uint64(crc32.Checksum(data[:len(data)-8], crc32.MakeTable(crc32.Castagnoli))))
	target, err := NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = snapshot.Load(bytes.NewReader(data), target)
	if err == nil || !strings.Contains(err.Error(), "snapshot promoted sketches row 0: sketch word 0 is") {
		t.Fatalf("a sketch word past the prime not rejected by row: %v", err)
	}
	if got := target.promotedVertices(); len(got) != 0 {
		t.Fatalf("rejected container promoted %v", got)
	}
}
