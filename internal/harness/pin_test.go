package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// containerDigests pins the SHA-256 of containers every loader must keep
// reading and every writer must keep writing: the full container of each
// registered algorithm after the run TestLoadIsReshardAtTheSourceShape
// saves (the same at p1 and p8), one connectivity delta, one session
// container (meta echo, mirror edge set and connectivity state) and the
// session delta that extends it (delta meta echo and connectivity delta).
//
// History: re-taken when a vertex kept its edge list until the list would
// outgrow its sketch. approxmsf, bipartite, connectivity and session moved
// with the sketch section (tag 0x1D, list edges and promoted rows, in place
// of 0x1C's n sketches) and the Stats' smaller PeakTotalWords;
// connectivity-delta and session-delta moved with the Stats alone. msf,
// matching, dynmatching and nowickionak did not move. Then msf moved with
// its Stats alone (Rounds and Messages), when a Cut's record lookup began to
// carry the labels and component sizes its split needs. Then approxmsf,
// bipartite, connectivity, msf and session moved with their Stats alone
// (Rounds, Messages, WordsSent; approxmsf's PeakTotalWords too), when a
// Link's records began to ride its relabel Tell and its rotation query to be
// asked only when the stats cannot answer it; connectivity-delta and
// session-delta with their Stats and the chain identity of their base. Then
// msf moved alone, when an exact-MSF batch began to take one wave: its
// section took tag 0x22 without the exchange-wave count, and its Stats
// moved with the rounds it saves (its tree edges did not).
var containerDigests = map[string]string{
	"approxmsf":          "2e4e61fe576c7c7c1ecf61f1a23a21aef299c161f84fae55d91790d1d0f74a76",
	"bipartite":          "b5862a7283cefb059dc58b99cf53d6c09bca7ec038b595ab4d5f8a572c4e5c2a",
	"connectivity":       "19963dca53a5bbf1dd0b0064e36969dadc2f8790dd25be28ab8876b2732d3f2e",
	"dynmatching":        "04e7598e9568de2fa9f2b74d67635f9f5e2ff7b6f32448409da58d06a693e2da",
	"matching":           "aa01296f1438d467c26f2bfdae52bcc92ebcbd91a3f70a293cb3fd8b697afac2",
	"msf":                "1545dd311d279389d34b28ac09e7b7343e50c2c7b8da292d99999071c30c1c02",
	"nowickionak":        "6b67a431c6d8ea0c27a9b9e75c78c87a7f6fede345043b0c24b53f8a9fcd5d31",
	"connectivity-delta": "6956cb393981296e16516d5ba803288806904af8faa0d12c93ec127c1396cb50",
	"session":            "6b1bec1125bac97c07af250cf60fd942f29422119225b0e12101d6afebe1ae51",
	"session-delta":      "4d4acf7065fee12c02f592e16d5ff7f6b889d069c55b5764e31b46987efd6aad",
}

// TestContainerBytesPinned fails when any container's bytes move: a layout
// change takes a new tag (the version policy of package snapshot), and a
// refactor of a writer or loader changes no byte. The failure lists every
// digest it computed.
func TestContainerBytesPinned(t *testing.T) {
	got := map[string]string{}
	digest := func(name string, data []byte) {
		d := fmt.Sprintf("%x", sha256.Sum256(data))
		if prev, ok := got[name]; ok && prev != d {
			t.Errorf("%s: the container differs between p1 and p8", name)
		}
		got[name] = d
	}
	for _, par := range []int{1, 8} {
		for _, name := range AlgorithmNames() {
			live, _ := pinned(t, name, par)
			var buf bytes.Buffer
			if err := snapshot.Save(&buf, live); err != nil {
				t.Fatal(err)
			}
			digest(name, buf.Bytes())
		}
		digest("connectivity-delta", pinDelta(t, par))
		full, delta := pinSession(t, par)
		digest("session", full)
		digest("session-delta", delta)
	}
	for name, want := range containerDigests {
		if got[name] != want {
			t.Errorf("%s: container digest %s, pinned %s", name, got[name], want)
		}
	}
	if t.Failed() {
		for _, name := range append(AlgorithmNames(), "connectivity-delta", "session", "session-delta") {
			t.Logf("%q: %q,", name, got[name])
		}
	}
}

// pinBatches is a churn stream on 48 vertices in batches of 4.
func pinBatches(t *testing.T, k int) []graph.Batch {
	t.Helper()
	sc, err := workload.Get("churn")
	if err != nil {
		t.Fatal(err)
	}
	gen := sc.New(48, 7)
	out := make([]graph.Batch, k)
	for i := range out {
		out[i] = gen.Next(4)
	}
	return out
}

var pinShape = core.Config{N: 48, Phi: 0.6, Seed: 5, VerticesPerMachine: 8}

// open reads a container back out of a store.
func open(t *testing.T, store snapshot.Store, name string) []byte {
	t.Helper()
	r, err := store.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// pinDelta returns the delta a bare connectivity instance writes after a
// full base, with a warm label cache.
func pinDelta(t *testing.T, par int) []byte {
	t.Helper()
	cfg := pinShape
	cfg.Parallelism = par
	dc, err := core.NewDynamicConnectivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := snapshot.NewMemStore()
	chain := snapshot.OpenChainIn(store, "pin", 4)
	for i, b := range pinBatches(t, 12) {
		if err := dc.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if kind, _, err := chain.Checkpoint(dc); err != nil || kind != "full" {
				t.Fatalf("base checkpoint: %s, %v", kind, err)
			}
		}
	}
	dc.ConnectedAll([]core.Pair{{U: 0, V: 1}, {U: 2, V: 40}, {U: 7, V: 47}})
	if kind, _, err := chain.Checkpoint(dc); err != nil || kind != "delta" {
		t.Fatalf("delta checkpoint: %s, %v", kind, err)
	}
	return open(t, store, "pin.delta-001")
}

// pinSession returns the full container of a connectivity session with a
// mirror, and the delta the session writes after two more batches and a
// query.
func pinSession(t *testing.T, par int) (full, delta []byte) {
	t.Helper()
	store := snapshot.NewMemStore()
	shape := pinShape
	shape.Parallelism = par
	s, err := session.Open(session.Config{
		Shape:  shape,
		New:    func(sh session.Shape) (session.State, error) { return core.NewDynamicConnectivity(sh) },
		Chain:  snapshot.OpenChainIn(store, "pin", 4),
		Mirror: session.NewMirror(shape.N),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range pinBatches(t, 12) {
		if err := s.Mirror().Admit(b); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		if i == 9 {
			if c, err := s.Checkpoint(); err != nil || c.Kind != "full" {
				t.Fatalf("session checkpoint: %+v, %v", c, err)
			}
		}
	}
	s.State().(*core.DynamicConnectivity).ConnectedAll([]core.Pair{{U: 0, V: 1}, {U: 3, V: 30}})
	if c, err := s.Checkpoint(); err != nil || c.Kind != "delta" {
		t.Fatalf("session delta checkpoint: %+v, %v", c, err)
	}
	return open(t, store, "pin"), open(t, store, "pin.delta-001")
}
