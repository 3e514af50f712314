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
var containerDigests = map[string]string{
	"approxmsf":          "097a424cb9d285def631b7820336550c2edf3e224730f67544ba1cdb1a5a047e",
	"bipartite":          "ec7ac2f885338677f45c222a22a79b5986c05fff024cbe2f70ae093a0f9c22e8",
	"connectivity":       "36a61e249aac76a0ae76a872d3e525fe4cc8d78d2ba09ed3cbcb32d1f85206c9",
	"dynmatching":        "04e7598e9568de2fa9f2b74d67635f9f5e2ff7b6f32448409da58d06a693e2da",
	"matching":           "aa01296f1438d467c26f2bfdae52bcc92ebcbd91a3f70a293cb3fd8b697afac2",
	"msf":                "6fe53bf7648df08ebc967578fc1fc9900201afb1272eb645a77df5e9a17a2c09",
	"nowickionak":        "6b67a431c6d8ea0c27a9b9e75c78c87a7f6fede345043b0c24b53f8a9fcd5d31",
	"connectivity-delta": "0d210f14826fc0de264dfad8573dce7d3e7478d5d25188cb9c48ac9e56e77e6a",
	"session":            "54edc55be417220b5a597e65f2661d0b835ad5acd8b5e4747153914c59ac7c68",
	"session-delta":      "df5baf897be4132607b3c72e9bc6c26c5d2fe610b4b51289af77a49448862dda",
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
			algo, err := GetAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := workload.Get(map[string]string{
				"connectivity": "churn", "bipartite": "churn", "msf": "grow-weighted", "approxmsf": "churn-weighted",
				"matching": "grow", "dynmatching": "churn", "nowickionak": "churn",
			}[name])
			if err != nil {
				t.Fatal(err)
			}
			opt := faultOptions(par)
			opt.FaultEvery = 0
			live, _, _, err := runScenario(algo, sc, opt)
			if err != nil {
				t.Fatal(err)
			}
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
	s, err := session.New(session.Config{
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
