package harness

import (
	"testing"

	"repro/internal/mpc"
	"repro/internal/session"
)

// placed is one cluster of an instance and the vertex count it is
// partitioned over (0 for a fleet whose size is not the vertex count's).
type placed struct {
	cl *mpc.Cluster
	n  int
}

// clustersOf lists every cluster a registered algorithm's instance runs on.
func clustersOf(t *testing.T, inst Instance, n int) []placed {
	t.Helper()
	switch v := inst.(type) {
	case connectivityInstance:
		return []placed{{v.Cluster(), n}}
	case bipartiteInstance:
		return []placed{{v.Graph().Cluster(), n}, {v.Cover().Cluster(), 2 * n}}
	case exactMSFInstance:
		return []placed{{v.Forest().Cluster(), n}}
	case approxMSFInstance:
		var out []placed
		for _, dc := range v.Levels() {
			out = append(out, placed{dc.Cluster(), n})
		}
		return out
	case greedyMatchingInstance:
		return []placed{{v.Cluster(), n}}
	case aklyInstance:
		var out []placed
		for i, cl := range v.Clusters() {
			// Each guess's sampler fleet, then its maximal matcher's.
			out = append(out, placed{cl, n * (i % 2)})
		}
		return out
	case nowickiOnakInstance:
		return []placed{{v.Cluster(), n}}
	}
	t.Fatalf("no clusters for instance type %T", inst)
	return nil
}

// TestSessionFleetIsTheRunningFleet pins that every algorithm runs on the
// fleet its session reasons about. At harness-default Options (the shape
// derived from Phi) and Parallelism 2, every cluster of every registered
// algorithm runs at that parallelism, every vertex-partitioned one has the
// machine count the session's shape gives its vertex count, and one machine
// loss leaves exactly one machine fewer.
func TestSessionFleetIsTheRunningFleet(t *testing.T) {
	for _, name := range AlgorithmNames() {
		t.Run(name, func(t *testing.T) {
			algo, err := GetAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Parallelism: 2}.withDefaults()
			sess, err := session.Open(sessionConfig(algo, opt))
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				for _, p := range clustersOf(t, sess.State().(Instance), opt.N) {
					if got := p.cl.Parallelism(); got != 2 {
						t.Errorf("%s: a cluster runs at parallelism %d, want 2", when, got)
					}
					if p.n == 0 {
						continue
					}
					at := sess.Shape()
					at.N = p.n
					if got, want := p.cl.Machines(), at.MachineCount(); got != want {
						t.Errorf("%s: a cluster over %d vertices runs on %d machines, the shape says %d", when, p.n, got, want)
					}
				}
			}
			check("fresh")
			before := sess.Shape().MachineCount()
			if before != 6 {
				t.Fatalf("harness default shape has %d machines, want 6 (N 48 at 11 vertices per machine)", before)
			}
			if _, err := sess.RecoverOnto(before-1, nil); err != nil {
				t.Fatal(err)
			}
			if got := sess.Shape().MachineCount(); got != before-1 {
				t.Fatalf("one machine loss left %d machines of %d", got, before)
			}
			check("after a machine loss")
		})
	}
}
