package mpc

import (
	"fmt"
	"reflect"
	"testing"
)

// padded is a one-frame answer of w words under key 0 whose second word
// SumValues adds up; the merged batch stays w words wide at every tree node.
func padded(w int, v uint64) *MessageBatch {
	b := AcquireMessageBatch()
	f := b.Grow(w)
	clear(f)
	f[1] = v
	return b
}

// TestRoundsAreTreeDepth pins the cost table of the collectives: every
// counted round is a hop on which some machine may send. A broadcast or an
// aggregation costs its tree depth, an Ask the way down plus the way up, a
// Scatter one round and a sort three; nothing pays a round to receive.
func TestRoundsAreTreeDepth(t *testing.T) {
	const w = 6 // payload words; LocalMemory = fanout * w
	for _, tc := range []struct{ M, fanout, depth int }{
		{1, 2, 1}, {1, 64, 1},
		{2, 2, 1}, {2, 64, 1},
		{5, 5, 1}, {5, 3, 2}, {5, 2, 3},
		{16, 16, 1}, {16, 4, 2}, {16, 3, 3},
		{64, 64, 1}, {64, 8, 2}, {64, 4, 3},
	} {
		t.Run(fmt.Sprintf("M=%d/fanout=%d", tc.M, tc.fanout), func(t *testing.T) {
			cl := NewCluster(Config{Machines: tc.M, LocalMemory: tc.fanout * w, Strict: true})
			from := tc.M / 2
			payload := U64s(make([]uint64, w))
			rounds := func(name string, want int, run func()) {
				t.Helper()
				before := cl.Stats().Rounds
				run()
				if got := cl.Stats().Rounds - before; got != want {
					t.Errorf("%s took %d rounds, want %d", name, got, want)
				}
			}
			answer := func(m *Machine, _ Sized) *MessageBatch { return padded(w, uint64(m.ID)) }
			sum := uint64(tc.M * (tc.M - 1) / 2)

			rounds("Broadcast", tc.depth, func() {
				cl.Broadcast(from, "bc", payload)
				cl.LocalAll(func(m *Machine) { m.Delete("bc") })
			})
			rounds("Tell", tc.depth, func() { cl.Tell(from, payload, func(*Machine, Sized) {}) })
			rounds("AggregateBatches", tc.depth, func() {
				res := cl.AggregateBatches(from, func(m *Machine) *MessageBatch { return answer(m, nil) }, SumValues)
				if got := framesOf(res); len(got) != 1 || got[0][1] != sum {
					t.Errorf("aggregated %v, want one frame summing to %d", got, sum)
				}
			})
			rounds("Ask", 2*tc.depth, func() {
				if got := framesOf(cl.Ask(from, payload, answer, SumValues)); len(got) != 1 || got[0][1] != sum {
					t.Errorf("Ask answered %v, want one frame summing to %d", got, sum)
				}
			})
			// A one-word question rides a depth-1 tree whenever the fanout
			// covers the cluster: down and up are priced separately.
			if tc.fanout*w >= tc.M {
				rounds("Ask(short question)", 1+tc.depth, func() {
					framesOf(cl.Ask(from, word(1), answer, SumValues))
				})
			}
		})
	}

	t.Run("Scatter", func(t *testing.T) {
		for _, M := range []int{1, 2, 5, 16, 64} {
			cl := NewCluster(Config{Machines: M, LocalMemory: M, Strict: true})
			got := make([]uint64, M)
			cl.Scatter(M-1, func(*Machine) []Message {
				out := make([]Message, M)
				for to := range out {
					out[to] = Message{To: to, Payload: word(to + 1)}
				}
				return out
			}, func(m *Machine, msg Message) { got[m.ID] = uint64(msg.Payload.(word)) })
			for i, v := range got {
				if v != uint64(i+1) {
					t.Errorf("M=%d: machine %d received %d", M, i, v)
				}
			}
			if r := cl.Stats().Rounds; r != 1 {
				t.Errorf("M=%d: Scatter took %d rounds, want 1", M, r)
			}
		}
	})

	t.Run("SortByKey", func(t *testing.T) {
		for _, M := range []int{1, 2, 5, 16, 64} {
			cl := NewCluster(Config{Machines: M, LocalMemory: 1 << 12, Strict: true})
			total := 0
			cl.SortByKey(
				func(m *Machine) []uint64 {
					keys := make([]uint64, 4)
					for i := range keys {
						keys[i] = mix(uint64(m.ID*4+i)) % 1000
					}
					return keys
				},
				func(_ *Machine, keys []uint64) { total += len(keys) }, 1)
			if total != 4*M {
				t.Errorf("M=%d: %d keys came back, want %d", M, total, 4*M)
			}
			if r := cl.Stats().Rounds; r != 3 {
				t.Errorf("M=%d: SortByKey took %d rounds, want 3", M, r)
			}
		}
	})
}

// landProgram sends a skewed round of one-word messages (odd machines write
// to their successor and to machine 0) and has every receiver store three
// words per message. receive is how the deliveries are taken in: Land, or
// the receive-only Step that Land replaced.
func landProgram(cfg Config, receive func(c *Cluster, fn func(m *Machine, inbox []Message))) (c *Cluster, calls, seen []int, nextInbox int) {
	c = NewCluster(cfg)
	M := cfg.Machines
	c.Step(func(m *Machine, _ []Message) []Message {
		if m.ID%2 == 0 {
			return nil
		}
		return []Message{{To: (m.ID + 1) % M, Payload: word(m.ID)}, {To: 0, Payload: word(m.ID)}}
	})
	calls, seen = make([]int, M), make([]int, M)
	receive(c, func(m *Machine, inbox []Message) {
		calls[m.ID]++
		seen[m.ID] = len(inbox)
		if len(inbox) > 0 {
			m.Set("landed", U64s(make([]uint64, 3*len(inbox))))
		}
	})
	perMachine := make([]int, M)
	c.Step(func(m *Machine, inbox []Message) []Message {
		perMachine[m.ID] = len(inbox)
		return nil
	})
	for _, n := range perMachine {
		nextInbox += n
	}
	return c, calls, seen, nextInbox
}

func byFlushStep(c *Cluster, fn func(m *Machine, inbox []Message)) {
	c.Step(func(m *Machine, inbox []Message) []Message {
		fn(m, inbox)
		return nil
	})
}

// TestLand: Land is the receive-only Step minus the round. Every machine is
// called, with an empty inbox too; the inboxes are empty afterwards; Rounds
// does not move; and what the landing stores is metered — peaks, recorded
// violations, Strict panics — exactly as the flush Step metered it, at any
// parallelism.
func TestLand(t *testing.T) {
	const M = 9
	var base Stats
	for _, p := range []int{1, 8} {
		// Machine 0 receives 4 messages and stores 12 words against a cap
		// of 10: one violation, recorded at the landing.
		cfg := Config{Machines: M, LocalMemory: 10, Parallelism: p}
		c, calls, seen, next := landProgram(cfg, (*Cluster).Land)
		for i := range calls {
			if calls[i] != 1 {
				t.Errorf("p=%d: machine %d called %d times, want once", p, i, calls[i])
			}
		}
		if want := []int{4, 0, 1, 0, 1, 0, 1, 0, 1}; !reflect.DeepEqual(seen, want) {
			t.Errorf("p=%d: inbox sizes %v, want %v", p, seen, want)
		}
		if next != 0 {
			t.Errorf("p=%d: the Step after Land was handed %d landed messages", p, next)
		}
		st := c.Stats()
		if st.Rounds != 2 {
			t.Errorf("p=%d: Rounds = %d, want 2 (Land is not a round)", p, st.Rounds)
		}
		if st.PeakMachineWords != 12 || st.PeakTotalWords != 24 {
			t.Errorf("p=%d: peaks %d / %d, want 12 / 24", p, st.PeakMachineWords, st.PeakTotalWords)
		}
		// The cap is checked at the landing and again at the next boundary.
		if want := "machine 0 stores 12 words (cap 10)"; len(st.Violations) != 2 || st.Violations[0] != want {
			t.Errorf("p=%d: violations %v, want %q twice", p, st.Violations, want)
		}
		flushed, _, _, _ := landProgram(cfg, byFlushStep)
		want := flushed.Stats()
		want.Rounds--
		if !reflect.DeepEqual(st, want) {
			t.Errorf("p=%d: Land metered %+v, the flush Step (less its round) %+v", p, st, want)
		}
		if p == 1 {
			base = st
		} else if !reflect.DeepEqual(st, base) {
			t.Errorf("p=%d stats %+v differ from p=1 %+v", p, st, base)
		}

		cfg.Strict = true
		panicOf := func(receive func(*Cluster, func(*Machine, []Message))) (msg any) {
			defer func() { msg = recover() }()
			landProgram(cfg, receive)
			return nil
		}
		if got, wantMsg := panicOf((*Cluster).Land), panicOf(byFlushStep); got == nil || got != wantMsg {
			t.Errorf("p=%d: Strict Land panicked with %v, the flush Step with %v", p, got, wantMsg)
		}
	}
}

// TestLandStrictPanicLeavesInboxesEmpty: a recovered Strict panic out of
// Land must not replay the landed messages into the next Step.
func TestLandStrictPanicLeavesInboxesEmpty(t *testing.T) {
	c := NewCluster(Config{Machines: 3, LocalMemory: 2, Strict: true})
	c.Step(func(m *Machine, _ []Message) []Message {
		if m.ID != 1 {
			return nil
		}
		return []Message{{To: 0, Payload: word(1)}}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Land over the memory cap did not panic")
			}
		}()
		c.Land(func(m *Machine, inbox []Message) {
			if len(inbox) > 0 {
				m.Set("big", U64s{1, 2, 3})
			}
		})
	}()
	c.Machine(0).Delete("big")
	c.Step(func(m *Machine, inbox []Message) []Message {
		if len(inbox) != 0 {
			t.Errorf("machine %d was handed %d messages after the recovered Land", m.ID, len(inbox))
		}
		return nil
	})
}
