package mpc_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/streamio"
	"repro/internal/workload"
)

// The executor-round allocation budget: one steady-state synchronous round
// of the simulator — machines decoding their inboxes and routing the
// churn32 golden trace's update batch as packed MessageBatch frames — must
// perform zero allocations. This pins down the whole routing path: the
// cluster's reused outbox/inbox double buffers, the preallocated dispatch
// closures, the worker pool's recycled barrier, and the batch codec's
// in-place encode/decode.

// churnRounds replays the churn32 golden trace shape through a cluster
// sized like the core connectivity instance for N=32 (four vertex machines
// plus a coordinator) and returns a closure executing one round.
type churnRounds struct {
	cl      *mpc.Cluster
	fn      mpc.StepFunc
	round   int
	batches []graph.Batch
}

func newChurnRounds(t testing.TB, parallelism int) *churnRounds {
	t.Helper()
	f, err := os.Open("../core/testdata/churn32.stream")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	batches, err := workload.Drain(workload.NewFuncSource(workload.Shape{Batches: -1, Updates: -1}, streamio.NewReader(f).Next))
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) == 0 {
		t.Fatal("empty churn32 trace")
	}
	const (
		n        = 32
		machines = 5 // ceil(32 / 32^0.6) vertex machines + coordinator
	)
	part := mpc.Partition{N: n, Machines: machines - 1}
	cl := mpc.NewCluster(mpc.Config{
		Machines:    machines,
		LocalMemory: 1 << 16,
		Parallelism: parallelism,
	})
	cr := &churnRounds{cl: cl, batches: batches}
	// Per-sender reusable outboxes, and double-buffered per-(src,dst)
	// batches: the set filled this round is decoded by its receiver next
	// round, so senders alternate buffers by round parity.
	outs := make([][]mpc.Message, machines)
	var bufs [2][][]*mpc.MessageBatch
	for par := 0; par < 2; par++ {
		bufs[par] = make([][]*mpc.MessageBatch, machines)
		for i := range bufs[par] {
			bufs[par][i] = make([]*mpc.MessageBatch, machines)
			for j := range bufs[par][i] {
				bufs[par][i][j] = cl.Machine(i).Batch(0)
			}
		}
	}
	sinks := make([]uint64, machines)
	cr.fn = func(m *mpc.Machine, inbox []mpc.Message) []mpc.Message {
		// Decode in place: accumulate the delivered frames.
		for _, msg := range inbox {
			for fr := range msg.Payload.(*mpc.MessageBatch).Frames {
				sinks[m.ID] += fr[0] ^ fr[1]<<1 ^ fr[2]
			}
		}
		if m.ID == machines-1 {
			return nil // coordinator
		}
		// Encode once: this round's churn32 updates whose smaller endpoint
		// this machine owns, framed [u, v, op] to the other endpoint's owner.
		mine := bufs[cr.round&1][m.ID]
		for _, b := range mine {
			b.Reset()
		}
		batch := cr.batches[cr.round%len(cr.batches)]
		for _, u := range batch {
			e := u.Edge.Canonical()
			if part.Owner(e.U) != m.ID {
				continue
			}
			mine[part.Owner(e.V)].Append(uint64(e.U), uint64(e.V), uint64(u.Op))
		}
		out := outs[m.ID][:0]
		for dst, b := range mine {
			if b.Len() > 0 {
				out = append(out, mpc.Message{To: dst, Payload: b})
			}
		}
		outs[m.ID] = out
		return out
	}
	return cr
}

func (cr *churnRounds) step() {
	cr.round++
	cr.cl.Step(cr.fn)
}

func TestAllocsExecutorRoundChurn32(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
			cr := newChurnRounds(t, p)
			// Warm up past buffer growth: one full pass over the trace.
			for i := 0; i < 2*len(cr.batches); i++ {
				cr.step()
			}
			if n := testing.AllocsPerRun(100, cr.step); n != 0 {
				t.Fatalf("one executor round on churn32 allocates %.1f allocs/op on the steady state, want 0", n)
			}
			if st := cr.cl.Stats(); len(st.Violations) != 0 {
				t.Fatalf("violations: %v", st.Violations[0])
			}
		})
	}
}

// wordsPayload is a question addressed through a pointer, so asking it again
// does not re-box a slice header.
type wordsPayload struct{ xs []uint64 }

func (p *wordsPayload) Words() int { return len(p.xs) }

// TestAllocsAskSteadyState: an Ask whose callbacks are built once — the
// shape of core's label lookup — allocates nothing once the cluster's free
// list and outboxes have grown: the broadcast tree, the answer dispatch and
// the merge-join all run on cluster-owned scratch, the race detector's
// scheduling included (the list is the cluster's, not a sync.Pool that
// drops items on purpose). Tell shares the broadcast and the dispatch.
func TestAllocsAskSteadyState(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
			cl := mpc.NewCluster(mpc.Config{Machines: 9, LocalMemory: 64, Parallelism: p})
			q := &wordsPayload{xs: []uint64{2, 3, 5, 7}}
			answer := func(m *mpc.Machine, q mpc.Sized) *mpc.MessageBatch {
				b := m.Batch(0)
				for _, k := range q.(*wordsPayload).xs {
					if int(k)%3 == m.ID%3 {
						b.Append(k, uint64(m.ID))
					}
				}
				return b
			}
			var sink [9]uint64
			apply := func(m *mpc.Machine, msg mpc.Sized) { sink[m.ID] += msg.(*wordsPayload).xs[0] }
			run := func() {
				if res := cl.Ask(8, q, answer, sumCombine); res != nil {
					res.Release()
				}
				cl.Tell(8, q, apply)
			}
			for i := 0; i < 16; i++ {
				run()
			}
			if n := testing.AllocsPerRun(100, run); n != 0 {
				t.Fatalf("steady-state Ask + Tell allocate %.1f allocs/op, want 0", n)
			}
			if st := cl.Stats(); len(st.Violations) != 0 {
				t.Fatalf("violations: %v", st.Violations)
			}
		})
	}
}
