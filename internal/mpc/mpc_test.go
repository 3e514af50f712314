package mpc

import (
	"reflect"
	"testing"
	"testing/quick"
)

// word is a one-word test payload.
type word uint64

func (word) Words() int { return 1 }

func newTestCluster(machines, mem int) *Cluster {
	return NewCluster(Config{Machines: machines, LocalMemory: mem, Strict: false})
}

func TestNewClusterValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Machines: 0, LocalMemory: 10},
		{Machines: 4, LocalMemory: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCluster(%+v) did not panic", cfg)
				}
			}()
			NewCluster(cfg)
		}()
	}
}

func TestStepDeliversMessages(t *testing.T) {
	c := newTestCluster(4, 100)
	// Round 1: machine 0 sends its ID to everyone else.
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID != 0 {
			return nil
		}
		var out []Message
		for to := 1; to < 4; to++ {
			out = append(out, Message{To: to, Payload: word(42)})
		}
		return out
	})
	// Round 2: others record what they received.
	got := make(map[int]uint64)
	c.Step(func(m *Machine, inbox []Message) []Message {
		for _, msg := range inbox {
			if msg.From != 0 {
				t.Errorf("machine %d got message from %d, want 0", m.ID, msg.From)
			}
			got[m.ID] = uint64(msg.Payload.(word))
		}
		return nil
	})
	for to := 1; to < 4; to++ {
		if got[to] != 42 {
			t.Errorf("machine %d received %d, want 42", to, got[to])
		}
	}
	st := c.Stats()
	if st.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", st.Rounds)
	}
	if st.Messages != 3 {
		t.Errorf("Messages = %d, want 3", st.Messages)
	}
	if st.WordsSent != 3 {
		t.Errorf("WordsSent = %d, want 3", st.WordsSent)
	}
}

func TestStepEnforcesReceiveCap(t *testing.T) {
	c := newTestCluster(4, 2)
	// Machines 1..3 each send 1 word to machine 0: 3 > cap 2.
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID == 0 {
			return nil
		}
		return []Message{{To: 0, Payload: word(1)}}
	})
	if len(c.Stats().Violations) == 0 {
		t.Error("receive-cap violation not recorded")
	}
}

func TestStepEnforcesSendCap(t *testing.T) {
	c := newTestCluster(4, 2)
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID != 0 {
			return nil
		}
		return []Message{
			{To: 1, Payload: U64s{1, 2}},
			{To: 2, Payload: U64s{3}},
		}
	})
	if len(c.Stats().Violations) == 0 {
		t.Error("send-cap violation not recorded")
	}
}

func TestStrictPanics(t *testing.T) {
	c := NewCluster(Config{Machines: 2, LocalMemory: 1, Strict: true})
	defer func() {
		if recover() == nil {
			t.Fatal("strict cluster did not panic on violation")
		}
	}()
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID != 0 {
			return nil
		}
		return []Message{{To: 1, Payload: U64s{1, 2, 3}}}
	})
}

func TestInvalidDestination(t *testing.T) {
	c := newTestCluster(2, 10)
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID != 0 {
			return nil
		}
		return []Message{{To: 99, Payload: word(1)}}
	})
	if len(c.Stats().Violations) == 0 {
		t.Error("invalid destination not recorded")
	}
}

func TestMemoryMetering(t *testing.T) {
	c := newTestCluster(3, 100)
	c.LocalAll(func(m *Machine) {
		m.Set("shard", U64s(make([]uint64, 10)))
	})
	st := c.Stats()
	if st.PeakMachineWords != 10 {
		t.Errorf("PeakMachineWords = %d, want 10", st.PeakMachineWords)
	}
	if st.PeakTotalWords != 30 {
		t.Errorf("PeakTotalWords = %d, want 30", st.PeakTotalWords)
	}
	// Exceed the per-machine cap via state growth.
	c.LocalAt(0, func(m *Machine) {
		m.Set("big", U64s(make([]uint64, 200)))
	})
	if len(c.Stats().Violations) == 0 {
		t.Error("state-cap violation not recorded")
	}
}

func TestMachineStore(t *testing.T) {
	m := &Machine{ID: 0, Store: make(map[string]Sized)}
	if m.Get("x") != nil {
		t.Error("Get on empty store non-nil")
	}
	m.Set("x", word(1))
	if m.Get("x") == nil || m.StateWords() != 1 {
		t.Error("Set/Get/StateWords broken")
	}
	m.Delete("x")
	if m.Get("x") != nil {
		t.Error("Delete did not remove slot")
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	for _, M := range []int{1, 2, 3, 7, 16, 33} {
		for _, from := range []int{0, M / 2, M - 1} {
			c := newTestCluster(M, 64)
			c.Broadcast(from, "bc", U64s{7, 8, 9})
			for i := 0; i < M; i++ {
				got := c.Machine(i).Get("bc")
				if got == nil {
					t.Fatalf("M=%d from=%d: machine %d missing broadcast", M, from, i)
				}
				if u := got.(U64s); len(u) != 3 || u[0] != 7 {
					t.Fatalf("M=%d: machine %d got wrong payload %v", M, i, u)
				}
			}
			if v := c.Stats().Violations; len(v) != 0 {
				t.Fatalf("M=%d from=%d: violations %v", M, from, v)
			}
		}
	}
}

func TestBroadcastRoundsLogarithmic(t *testing.T) {
	// With payload of w words and memory s, fanout is s/w; fanout 8 reaches
	// 64 machines in two hops, and a round is a hop: the last hop's
	// deliveries are landed, not stepped for.
	c := newTestCluster(64, 8)
	c.Broadcast(0, "bc", word(5))
	if r := c.Stats().Rounds; r != 2 {
		t.Errorf("broadcast of 1 word to 64 machines with s=8 took %d rounds, want 2", r)
	}
}

func TestScatter(t *testing.T) {
	c := newTestCluster(5, 100)
	got := make(map[int]uint64)
	c.Scatter(0,
		func(m *Machine) []Message {
			var out []Message
			for to := 0; to < 5; to++ {
				out = append(out, Message{To: to, Payload: word(uint64(to + 100))})
			}
			return out
		},
		func(m *Machine, msg Message) {
			got[m.ID] = uint64(msg.Payload.(word))
		},
	)
	for i := 0; i < 5; i++ {
		if got[i] != uint64(i+100) {
			t.Errorf("machine %d got %d", i, got[i])
		}
	}
}

func TestResetStats(t *testing.T) {
	c := newTestCluster(2, 10)
	c.Step(func(m *Machine, inbox []Message) []Message { return nil })
	c.ResetStats()
	if c.Stats().Rounds != 0 {
		t.Error("ResetStats did not zero rounds")
	}
}

func TestPartitionOwnerAndRange(t *testing.T) {
	p := Partition{N: 10, Machines: 3}
	// per = 4: machine 0 owns [0,4), 1 owns [4,8), 2 owns [8,10).
	for v := 0; v < 10; v++ {
		o := p.Owner(v)
		lo, hi := p.Range(o)
		if v < lo || v >= hi {
			t.Errorf("vertex %d: owner %d range [%d,%d) does not contain it", v, o, lo, hi)
		}
	}
	// Ranges must tile [0, N).
	covered := 0
	for id := 0; id < 3; id++ {
		lo, hi := p.Range(id)
		covered += hi - lo
	}
	if covered != 10 {
		t.Errorf("ranges cover %d items, want 10", covered)
	}
}

func TestPartitionOwnerPanicsOutOfRange(t *testing.T) {
	p := Partition{N: 4, Machines: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("Owner(-1) did not panic")
		}
	}()
	p.Owner(-1)
}

func TestPartitionMoreMachinesThanItems(t *testing.T) {
	p := Partition{N: 2, Machines: 8}
	for v := 0; v < 2; v++ {
		o := p.Owner(v)
		if o < 0 || o >= 8 {
			t.Errorf("owner %d out of machine range", o)
		}
	}
	total := 0
	for id := 0; id < 8; id++ {
		lo, hi := p.Range(id)
		if hi < lo {
			t.Errorf("machine %d has inverted range [%d,%d)", id, lo, hi)
		}
		total += hi - lo
	}
	if total != 2 {
		t.Errorf("ranges cover %d, want 2", total)
	}
}

func TestTreeDepth(t *testing.T) {
	cases := []struct{ m, f, want int }{
		{1, 2, 1},
		{2, 2, 1},
		{4, 2, 2},
		{5, 2, 3},
		{64, 8, 2},
		{65, 8, 3},
	}
	for _, c := range cases {
		if got := treeDepth(c.m, c.f); got != c.want {
			t.Errorf("treeDepth(%d,%d) = %d, want %d", c.m, c.f, got, c.want)
		}
	}
}

func TestFanoutFloor(t *testing.T) {
	c := newTestCluster(2, 4)
	if f := c.fanout(100); f != 2 {
		t.Errorf("fanout(100) = %d, want floor 2", f)
	}
	if f := c.fanout(0); f != 4 {
		t.Errorf("fanout(0) = %d, want 4", f)
	}
}

func TestSizedImplementations(t *testing.T) {
	if (U64s{1, 2, 3}).Words() != 3 {
		t.Error("U64s.Words")
	}
	if (Ints{1, 2}).Words() != 2 {
		t.Error("Ints.Words")
	}
	if (keyRun{keys: []uint64{1, 2}, itemWords: 3}).Words() != 6 {
		t.Error("keyRun.Words")
	}
}

func TestBroadcastManyConfigsProperty(t *testing.T) {
	// Broadcast must reach all machines and respect caps for a sweep of
	// cluster shapes and payload sizes.
	for _, M := range []int{2, 4, 9, 25} {
		for _, w := range []int{1, 3, 8} {
			mem := 2 * w * 4
			c := newTestCluster(M, mem)
			payload := U64s(make([]uint64, w))
			for i := range payload {
				payload[i] = uint64(i)
			}
			c.Broadcast(M-1, "p", payload)
			for i := 0; i < M; i++ {
				if c.Machine(i).Get("p") == nil {
					t.Fatalf("M=%d w=%d: machine %d missed broadcast", M, w, i)
				}
			}
			if v := c.Stats().Violations; len(v) != 0 {
				t.Fatalf("M=%d w=%d: %v", M, w, v)
			}
		}
	}
}

func TestQuickPartitionInvariants(t *testing.T) {
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%200) + 1
		m := int(mRaw%16) + 1
		p := Partition{N: n, Machines: m}
		covered := 0
		prevHi := 0
		for id := 0; id < m; id++ {
			lo, hi := p.Range(id)
			if lo != prevHi || hi < lo {
				return false
			}
			prevHi = hi
			covered += hi - lo
			for v := lo; v < hi; v++ {
				if p.Owner(v) != id {
					return false
				}
			}
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBroadcastOversizedPayloadViolates(t *testing.T) {
	// A payload larger than the local memory cannot be broadcast legally;
	// the violation must be metered, not hidden.
	c := newTestCluster(4, 8)
	c.Broadcast(0, "big", U64s(make([]uint64, 32)))
	if len(c.Stats().Violations) == 0 {
		t.Error("oversized broadcast recorded no violations")
	}
}

// TestStrictPanicRecoveryDoesNotReplayMessages guards the reused round
// buffers against a recovered Strict-mode violation: a panic mid-merge
// leaves a partial merge in the spare inbox set, and the next Step must
// discard it rather than deliver last round's messages again.
func TestStrictPanicRecoveryDoesNotReplayMessages(t *testing.T) {
	c := NewCluster(Config{Machines: 3, LocalMemory: 4, Strict: true})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("over-cap send did not panic in Strict mode")
			}
		}()
		c.Step(func(m *Machine, inbox []Message) []Message {
			// Machine 0 overflows its send cap; its message is merged into
			// the spare buffers before the cap check panics.
			if m.ID == 0 {
				return []Message{{To: 1, Payload: U64s(make([]uint64, 8))}}
			}
			return nil
		})
	}()
	var got [][]int
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID == 2 {
			return []Message{{To: 1, Payload: word(7)}}
		}
		return nil
	})
	c.Step(func(m *Machine, inbox []Message) []Message {
		for _, msg := range inbox {
			got = append(got, []int{m.ID, msg.From, msg.Payload.Words()})
		}
		return nil
	})
	want := [][]int{{1, 2, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery deliveries = %v, want %v (stale messages replayed)", got, want)
	}
}
