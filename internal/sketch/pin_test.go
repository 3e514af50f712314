package sketch_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/hash"
	"repro/internal/sketch"
)

// sketchWordDigests pins the SHA-256 of the words a seeded stream of edge
// inserts and deletes leaves in an arena (n = 4096, t = 32), and in arenas
// updated only through windows of a few copy ranges. Package sketchtest
// draws its samplers from the same hash.Family as the code under test, so a
// change to the hash or to the update kernel that moves both alike passes
// the equivalence tests; it cannot pass this one.
var sketchWordDigests = map[string]string{
	"full":    "769913f44883064f2c40114d3e33d1bca25d2e7e8014353bd09ea09ddb43b16a",
	"[0,1)":   "08b101e73775a479b88c210ef836fb6a992220a060525966a3e0479830d40ba5",
	"[5,17)":  "cee8d366cfe9856747834fa55a74121135feaf815281ef4c1dc7e40bb3ec0625",
	"[31,32)": "7e272734effdd835bcd67b1438d1bd2a6694e3a6f7bd78686ba31140fd7410be",
}

// TestSketchWordsPinned fails when any word an update writes moves. A
// rewrite of the update kernel keeps every cell bit-identical; the failure
// lists every digest it computed.
func TestSketchWordsPinned(t *testing.T) {
	const n, copies, slots, steps = 4096, 32, 128, 6000
	space := sketch.NewGraphSpace(n, copies, hash.NewPRG(2024))
	full := space.NewArena(slots)
	ranges := [][2]int{{0, 1}, {5, 17}, {31, 32}}
	windowed := make([]*sketch.Arena, len(ranges))
	for i := range windowed {
		windowed[i] = space.NewArena(slots)
	}
	apply := func(e graph.Edge, op graph.Op) {
		for _, w := range []int{e.U, e.V} {
			if w >= slots {
				continue
			}
			sign := sketch.EdgeSign(w, e)
			if op == graph.Delete {
				sign = -sign
			}
			full.At(w).Update(e.ID(n), sign)
			for i, r := range ranges {
				windowed[i].At(w).Window(r[0], r[1]).Update(e.ID(n), sign)
			}
		}
	}
	prg := hash.NewPRG(7)
	var live []graph.Edge
	have := map[graph.Edge]bool{}
	for s := 0; s < steps; s++ {
		if len(live) > 0 && prg.NextN(3) == 0 {
			i := int(prg.NextN(uint64(len(live))))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(have, e)
			apply(e, graph.Delete)
			continue
		}
		u, v := int(prg.NextN(slots)), int(prg.NextN(n))
		e := graph.NewEdge(u, v)
		if u == v || have[e] {
			continue
		}
		have[e] = true
		live = append(live, e)
		apply(e, graph.Insert)
	}
	digest := func(a *sketch.Arena) string {
		h := sha256.New()
		var b [8]byte
		for i := range a.Len() {
			for _, w := range a.At(i).Cells() {
				binary.LittleEndian.PutUint64(b[:], w)
				h.Write(b[:])
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	got := map[string]string{"full": digest(full)}
	for i, r := range ranges {
		got[fmt.Sprintf("[%d,%d)", r[0], r[1])] = digest(windowed[i])
	}
	for name, want := range sketchWordDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, pinned %s", name, got[name], want)
		}
	}
	if t.Failed() {
		t.Logf("computed digests: %q", got)
	}
}
