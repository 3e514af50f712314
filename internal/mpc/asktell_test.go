package mpc

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The tests below carry the names of the boxed collectives they used to
// exercise (Gather, Aggregate, Exchange); each now states the same property
// of the Ask or Tell that replaced the call.

// framesOf copies a batch's frames out and releases it (nil for a nil batch).
func framesOf(b *MessageBatch) [][]uint64 {
	if b == nil {
		return nil
	}
	var out [][]uint64
	for f := range b.Frames {
		out = append(out, append([]uint64(nil), f...))
	}
	b.Release()
	return out
}

// storeWords samples every machine's store size.
func storeWords(c *Cluster) []int {
	out := make([]int, c.Machines())
	for i := range out {
		out[i] = c.Machine(i).StateWords()
	}
	return out
}

// collectiveRounds is what one tree walk over payloads of w words costs, a
// broadcast down or an aggregation up: its depth, one round per hop. The last
// hop's deliveries are landed, not stepped for.
func collectiveRounds(c *Cluster, w int) int {
	return treeDepth(c.Machines(), c.fanout(w))
}

// idTimes answers one [id, id*q] frame per machine.
func idTimes(m *Machine, q Sized) *MessageBatch {
	b := m.Batch(0)
	b.Append(uint64(m.ID), uint64(m.ID)*uint64(q.(word)))
	return b
}

func TestGatherCollectsAll(t *testing.T) {
	for _, M := range []int{1, 2, 5, 16} {
		for _, from := range []int{0, M - 1} {
			c := newTestCluster(M, 1000)
			c.LocalAll(func(m *Machine) { m.Set("shard", U64s(make([]uint64, 3+m.ID))) })
			before := storeWords(c)
			got := framesOf(c.Ask(from, word(10), idTimes, KeepFirst))
			if len(got) != M {
				t.Fatalf("M=%d: gathered %d frames", M, len(got))
			}
			for id, f := range got {
				if f[0] != uint64(id) || f[1] != uint64(id*10) {
					t.Errorf("M=%d: frame %d = %v", M, id, f)
				}
			}
			if after := storeWords(c); !reflect.DeepEqual(after, before) {
				t.Errorf("M=%d from=%d: stores %v after the Ask, %v before", M, from, after, before)
			}
			want := collectiveRounds(c, 1) + collectiveRounds(c, 2)
			if r := c.Stats().Rounds; r != want {
				t.Errorf("M=%d: Ask took %d rounds, want broadcast + aggregate = %d", M, r, want)
			}
			if v := c.Stats().Violations; len(v) != 0 {
				t.Fatalf("M=%d: violations %v", M, v)
			}
		}
	}
}

func TestGatherSkipsNil(t *testing.T) {
	c := newTestCluster(8, 1000)
	before := storeWords(c)
	got := framesOf(c.Ask(2, word(1), func(m *Machine, q Sized) *MessageBatch {
		if m.ID%2 != 0 {
			return nil
		}
		return idTimes(m, q)
	}, KeepFirst))
	if want := [][]uint64{{0, 0}, {2, 2}, {4, 4}, {6, 6}}; !reflect.DeepEqual(got, want) {
		t.Errorf("gathered %v, want %v", got, want)
	}
	// The machines that answered nil consumed the question all the same.
	if after := storeWords(c); !reflect.DeepEqual(after, before) {
		t.Errorf("stores %v after the Ask, %v before", after, before)
	}
}

func TestGatherLargeFanIn(t *testing.T) {
	// 27 machines each answer 2 words (54 words total, within the 64-word
	// cap of the asker). All frames must arrive without cap violations.
	c := newTestCluster(27, 64)
	got := framesOf(c.Ask(0, word(1), idTimes, KeepFirst))
	if len(got) != 27 {
		t.Fatalf("gathered %d frames, want 27", len(got))
	}
	if v := c.Stats().Violations; len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// idSum answers one [0, id*q] frame per machine, all under one key.
func idSum(m *Machine, q Sized) *MessageBatch {
	b := m.Batch(0)
	b.Append(0, uint64(m.ID)*uint64(q.(word)))
	return b
}

func TestAggregateSums(t *testing.T) {
	for _, M := range []int{1, 2, 7, 32} {
		c := newTestCluster(M, 100)
		got := framesOf(c.Ask(0, word(1), idSum, SumValues))
		if want := [][]uint64{{0, uint64(M * (M - 1) / 2)}}; !reflect.DeepEqual(got, want) {
			t.Errorf("M=%d: sum = %v, want %v", M, got, want)
		}
		if v := c.Stats().Violations; len(v) != 0 {
			t.Fatalf("M=%d: violations %v", M, v)
		}
	}
}

func TestAggregateWithNilContributions(t *testing.T) {
	c := newTestCluster(9, 100)
	got := framesOf(c.Ask(4, word(11), func(m *Machine, q Sized) *MessageBatch {
		if m.ID != 3 {
			return nil
		}
		b := m.Batch(0)
		b.Append(0, uint64(q.(word)))
		return b
	}, SumValues))
	if want := [][]uint64{{0, 11}}; !reflect.DeepEqual(got, want) {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// No answer at all, and only empty answers: both come back nil.
	if res := c.Ask(4, word(1), func(*Machine, Sized) *MessageBatch { return nil }, SumValues); res != nil {
		t.Errorf("Ask nobody answered returned %v", framesOf(res))
	}
	if res := c.Ask(4, word(1), func(m *Machine, _ Sized) *MessageBatch { return m.Batch(0) }, SumValues); res != nil {
		t.Errorf("Ask answered with empty batches returned %v", framesOf(res))
	}
	for i, w := range storeWords(c) {
		if w != 0 {
			t.Errorf("machine %d holds %d words after the Asks", i, w)
		}
	}
}

func TestAggregateToNonZeroMachine(t *testing.T) {
	c := newTestCluster(6, 100)
	got := framesOf(c.Ask(5, word(1), func(m *Machine, q Sized) *MessageBatch {
		b := m.Batch(0)
		b.Append(0, uint64(q.(word)))
		return b
	}, SumValues))
	if want := [][]uint64{{0, 6}}; !reflect.DeepEqual(got, want) {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestExchangeLookup(t *testing.T) {
	// A distributed lookup: machine 3 asks for the squares of 1, 2 and 5;
	// machine k knows k*k.
	c := newTestCluster(4, 100)
	got := framesOf(c.Ask(3, U64s{1, 2, 5}, func(m *Machine, q Sized) *MessageBatch {
		for _, k := range q.(U64s) {
			if k == uint64(m.ID) {
				b := m.Batch(0)
				b.Append(k, k*k)
				return b
			}
		}
		return nil
	}, KeepFirst))
	if want := [][]uint64{{1, 1}, {2, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("lookup = %v, want %v", got, want)
	}
	if r, want := c.Stats().Rounds, collectiveRounds(c, 3)+collectiveRounds(c, 2); r != want {
		t.Errorf("lookup took %d rounds, want %d", r, want)
	}
}

func TestSortedMachineIDs(t *testing.T) {
	// Answers keyed by machine id come back in ascending id whoever asks.
	for _, from := range []int{0, 1, 3} {
		c := newTestCluster(4, 10)
		got := framesOf(c.Ask(from, word(1), idTimes, KeepFirst))
		for i, f := range got {
			if f[0] != uint64(i) {
				t.Fatalf("from=%d: frames = %v", from, got)
			}
		}
	}
}

// TestTellAppliesEverywhere: every machine, the teller included, is handed
// the message once, and no store keeps it.
func TestTellAppliesEverywhere(t *testing.T) {
	for _, M := range []int{1, 3, 16} {
		c := newTestCluster(M, 64)
		c.LocalAll(func(m *Machine) { m.Set("shard", U64s{0}) })
		before := storeWords(c)
		c.Tell(M/2, U64s{7, 8, 9}, func(m *Machine, msg Sized) {
			sh := m.Get("shard").(U64s)
			sh[0] += msg.(U64s)[0] + uint64(m.ID)
		})
		for i := 0; i < M; i++ {
			if got := c.Machine(i).Get("shard").(U64s)[0]; got != uint64(7+i) {
				t.Errorf("M=%d: machine %d applied %d, want %d", M, i, got, 7+i)
			}
		}
		if after := storeWords(c); !reflect.DeepEqual(after, before) {
			t.Errorf("M=%d: stores %v after the Tell, %v before", M, after, before)
		}
		if r, want := c.Stats().Rounds, collectiveRounds(c, 3); r != want {
			t.Errorf("M=%d: Tell took %d rounds, want the broadcast's %d", M, r, want)
		}
		// The payload was metered while it was held: one copy per machine.
		if peak, want := c.Stats().PeakTotalWords, 4*M; peak != want {
			t.Errorf("M=%d: PeakTotalWords = %d, want %d", M, peak, want)
		}
	}
}

// tellWithParts runs one TellParts on a fresh cluster: a one-word message
// from machine from, and the parts given as (machine, words) pairs, each part
// a U64s whose words are its machine's id. It returns the cluster, the parts
// every machine was handed, in order, and whether each machine's apply saw its
// parts metered in its store and ran before the first of them was handed over.
func tellWithParts(t *testing.T, cfg Config, from int, parts [][2]int) (*Cluster, [][]U64s, []bool) {
	t.Helper()
	c := NewCluster(cfg)
	var msgs []Message
	want := make([]int, cfg.Machines)
	for _, p := range parts {
		msgs = append(msgs, Message{To: p[0], Payload: U64s(slices.Repeat([]uint64{uint64(p[0])}, p[1]))})
		want[p[0]] += p[1]
	}
	got := make([][]U64s, cfg.Machines)
	ok := make([]bool, cfg.Machines)
	c.TellParts(from, word(1), msgs,
		func(m *Machine, msg Sized) {
			held := 0
			if pl := m.Get(slotParts); pl != nil {
				held = pl.Words()
			}
			ok[m.ID] = held == want[m.ID] && len(got[m.ID]) == 0
		},
		func(m *Machine, part Sized) { got[m.ID] = append(got[m.ID], part.(U64s)) })
	for i := range cfg.Machines {
		if c.Machine(i).Get(slotParts) != nil || c.Machine(i).Get(slotTold) != nil {
			t.Errorf("machine %d still holds its parts or the message", i)
		}
	}
	return c, got, ok
}

// TestTellPartsRideTheFirstRound: the parts of a TellParts travel in the
// broadcast's first round, so the Tell costs its broadcast's depth — the
// tree sized with the parts' words taken off the sender's round — at depth 1
// and at depth 2 alike; they are counted in that round's messages and
// words (the sender's largest send is its copies plus the parts), held
// metered by their addressee, handed over after its apply in the order
// given, and the Stats are the same at parallelism 1 and 8. A single machine
// hands itself its parts. Parts that push the sender over s break its cap,
// and are delivered all the same.
func TestTellPartsRideTheFirstRound(t *testing.T) {
	for _, tc := range []struct {
		name     string
		M, s     int
		parts    [][2]int
		depth    int
		violates bool
	}{
		{"depth 1", 6, 100, [][2]int{{0, 3}, {4, 2}, {2, 5}, {4, 1}}, 1, false},
		{"depth 2", 64, 40, [][2]int{{5, 4}, {63, 4}, {0, 2}, {5, 2}}, 2, false},
		{"one machine", 1, 16, [][2]int{{0, 3}, {0, 2}}, 1, false},
		{"over the cap", 4, 10, [][2]int{{3, 6}, {2, 6}}, 2, true},
	} {
		var stats []Stats
		for _, p := range []int{1, 8} {
			c, got, ok := tellWithParts(t, Config{Machines: tc.M, LocalMemory: tc.s, Parallelism: p}, 0, tc.parts)
			st := c.Stats()
			stats = append(stats, st)
			partWords, want := 0, make([][]U64s, tc.M)
			for _, pt := range tc.parts {
				partWords += pt[1]
				want[pt[0]] = append(want[pt[0]], U64s(slices.Repeat([]uint64{uint64(pt[0])}, pt[1])))
			}
			for i := range tc.M {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s p%d: machine %d was handed %v, want %v", tc.name, p, i, got[i], want[i])
				}
				if !ok[i] {
					t.Errorf("%s p%d: machine %d did not hold its parts, metered, while its apply ran", tc.name, p, i)
				}
			}
			f := fanoutWithin(tc.s-partWords, 1)
			if d := treeDepth(tc.M, f); st.Rounds != d || d != tc.depth {
				t.Errorf("%s p%d: %d rounds, tree depth %d, want %d", tc.name, p, st.Rounds, d, tc.depth)
			}
			if w := int64(tc.M - 1 + partWords); st.Messages != int64(tc.M-1+len(tc.parts)) || st.WordsSent != w {
				t.Errorf("%s p%d: %d messages and %d words, want %d and %d", tc.name, p, st.Messages, st.WordsSent, tc.M-1+len(tc.parts), w)
			}
			if w := min(f-1, tc.M-1) + partWords; st.MaxSendWords != w {
				t.Errorf("%s p%d: the largest send is %d words, want the first round's %d", tc.name, p, st.MaxSendWords, w)
			}
			if broke := st.ViolationCount > 0 && strings.Contains(st.Violations[0], "machine 0 sent"); broke != tc.violates || (!tc.violates && st.ViolationCount > 0) {
				t.Errorf("%s p%d: violations %v", tc.name, p, st.Violations)
			}
		}
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Errorf("%s: stats at p1 %+v, at p8 %+v", tc.name, stats[0], stats[1])
		}
	}
}

// TestPhasesSumToStats: every round is charged to the phase named last
// (Cluster.Phase), "" before the first, with the messages and words it
// routed; a phase named again adds to its row, one that sends nothing has
// none, and the rows sum to Stats, at parallelism 1 and 8 alike.
func TestPhasesSumToStats(t *testing.T) {
	var rows [][]PhaseStats
	for _, p := range []int{1, 8} {
		c := NewCluster(Config{Machines: 13, LocalMemory: 24, Parallelism: p})
		c.Tell(0, word(1), func(*Machine, Sized) {})
		c.Phase("ask")
		before := c.Stats().Rounds
		framesOf(c.Ask(3, word(2), idTimes, KeepFirst))
		ask := c.Stats().Rounds - before
		c.Phase("tell")
		c.Tell(5, U64s{1, 2, 3}, func(*Machine, Sized) {})
		c.Phase("silent")
		c.LocalAll(func(*Machine) {})
		c.Phase("ask")
		framesOf(c.Ask(3, word(2), idTimes, KeepFirst))
		got := c.Phases()
		var sum PhaseStats
		names := []string{}
		for _, ph := range got {
			names = append(names, ph.Name)
			sum.Rounds += ph.Rounds
			sum.Messages += ph.Messages
			sum.WordsSent += ph.WordsSent
		}
		if want := []string{"", "ask", "tell"}; !reflect.DeepEqual(names, want) {
			t.Errorf("p%d: phases %q, want %q", p, names, want)
		}
		if st := c.Stats(); sum.Rounds != st.Rounds || sum.Messages != st.Messages || sum.WordsSent != st.WordsSent {
			t.Errorf("p%d: phases sum to %+v, stats %+v", p, sum, st)
		}
		if got[1].Rounds != 2*ask {
			t.Errorf("p%d: two Asks of %d rounds charged %d", p, ask, got[1].Rounds)
		}
		rows = append(rows, got)
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Errorf("phases at p1 %+v, at p8 %+v", rows[0], rows[1])
	}
}

// TestAskIsBroadcastThenAggregate pins the ledger of the two verbs to the
// protocol every site used to run by hand: Broadcast, then a collective whose
// callback reads the slot and deletes it. Both sides land their last hop
// (Cluster.Land), so the full Stats agree, Rounds included.
func TestAskIsBroadcastThenAggregate(t *testing.T) {
	for _, p := range []int{1, 8} {
		verbs := NewCluster(Config{Machines: 13, LocalMemory: 24, Parallelism: p})
		hand := NewCluster(Config{Machines: 13, LocalMemory: 24, Parallelism: p})
		q := U64s{3, 1, 4, 1, 5}
		a := framesOf(verbs.Ask(12, q, func(m *Machine, q Sized) *MessageBatch {
			b := m.Batch(0)
			b.Append(uint64(m.ID%4), uint64(len(q.(U64s))))
			return b
		}, SumValues))
		verbs.Tell(12, q, func(m *Machine, msg Sized) { m.Set("kept", msg.(U64s)[:m.ID%3]) })

		hand.broadcast(12, q)
		b := framesOf(hand.AggregateBatches(12, func(m *Machine) *MessageBatch {
			q := m.Get(slotTold)
			m.Delete(slotTold)
			b := m.Batch(0)
			b.Append(uint64(m.ID%4), uint64(len(q.(U64s))))
			return b
		}, SumValues))
		hand.broadcast(12, q)
		hand.LocalAll(func(m *Machine) {
			msg := m.Get(slotTold)
			m.Delete(slotTold)
			m.Set("kept", msg.(U64s)[:m.ID%3])
		})
		if !reflect.DeepEqual(a, b) {
			t.Errorf("p=%d: Ask answered %v, the hand-run protocol %v", p, a, b)
		}
		if vs, hs := verbs.Stats(), hand.Stats(); !reflect.DeepEqual(vs, hs) {
			t.Errorf("p=%d: stats diverged\nverbs: %+v\nhand:  %+v", p, vs, hs)
		}
	}
}

func ExampleCluster_Ask() {
	c := NewCluster(Config{Machines: 4, LocalMemory: 16})
	// Machine 0 asks every machine for (id+1) times the question, summed.
	sum := c.Ask(0, U64s{10},
		func(m *Machine, q Sized) *MessageBatch {
			b := m.Batch(0)
			b.Append(0, q.(U64s)[0]*uint64(m.ID+1))
			return b
		}, SumValues)
	for f := range sum.Frames {
		fmt.Println(f[1])
	}
	sum.Release()
	// Output: 100
}

func ExampleCluster_Tell() {
	c := NewCluster(Config{Machines: 3, LocalMemory: 16})
	c.Tell(2, U64s{5}, func(m *Machine, msg Sized) {
		m.Set("x", U64s{msg.(U64s)[0] + uint64(m.ID)})
	})
	for i := 0; i < 3; i++ {
		fmt.Println(c.Machine(i).Get("x"), c.Machine(i).StateWords())
	}
	// Output:
	// [5] 1
	// [6] 1
	// [7] 1
}
