package mpc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// mix is a splitmix64-style bit mixer used to derive per-(round, machine)
// pseudo-random traffic that is deterministic regardless of scheduling.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// runSkewedTrafficProgram drives several rounds of seeded many-to-many
// traffic designed to stress routing and metering: a hot destination (machine 0
// receives from everyone every round), ragged per-sender fan-out, payload
// sizes that trip send- and receive-cap violations, and occasional invalid
// destinations. It returns the final Stats and a machine-order digest of
// every delivery (sender, size, in order) and final store size.
func runSkewedTrafficProgram(parallelism, machines int) (Stats, string) {
	const rounds = 6
	c := NewCluster(Config{Machines: machines, LocalMemory: 96, Parallelism: parallelism})
	digests := make([]string, machines)
	for r := 0; r < rounds; r++ {
		round := r
		c.Step(func(m *Machine, inbox []Message) []Message {
			for _, msg := range inbox {
				digests[m.ID] += fmt.Sprintf("(r%d f%d w%d)", round, msg.From, msg.Payload.Words())
			}
			h := mix(uint64(round)*1e9 + uint64(m.ID))
			out := []Message{{To: 0, Payload: word(h)}} // hot destination
			for k := 0; k < int(h%5); k++ {
				h = mix(h)
				sz := 1 + int(h%4)
				if h%31 == 0 {
					sz = 80 // oversized: trips send and receive caps
				}
				to := int(h % uint64(machines))
				if h%37 == 0 {
					to = machines + int(h%9) // invalid destination
				}
				out = append(out, Message{To: to, Payload: U64s(make([]uint64, sz))})
			}
			m.Set("acc", U64s(make([]uint64, 1+int(h%7))))
			return out
		})
	}
	digest := ""
	for i := 0; i < machines; i++ {
		digest += fmt.Sprintf("m%d: state=%d %s\n", i, c.Machine(i).StateWords(), digests[i])
	}
	return c.Stats(), digest
}

// TestSkewedTrafficDeterministic is the property test for routing skewed
// traffic: seeded many-to-many rounds with a hot destination, cap violations
// and invalid destinations yield bit-identical Stats (violation strings in
// order included) and bit-identical per-machine delivery sequences at every
// parallelism level, on machine counts chosen to give the pools ragged
// work-stealing chunks (97), even ones (128), and fewer machines than
// workers (7).
func TestSkewedTrafficDeterministic(t *testing.T) {
	for _, machines := range []int{7, 97, 128} {
		t.Run(fmt.Sprintf("M=%d", machines), func(t *testing.T) {
			baseStats, baseDigest := runSkewedTrafficProgram(1, machines)
			if len(baseStats.Violations) == 0 {
				t.Fatal("program was expected to record violations")
			}
			for _, p := range []int{2, 3, 8} {
				st, digest := runSkewedTrafficProgram(p, machines)
				if !reflect.DeepEqual(st, baseStats) {
					t.Errorf("parallelism %d: stats diverged\nseq: %+v\npar: %+v", p, baseStats, st)
				}
				if digest != baseDigest {
					t.Errorf("parallelism %d: delivery digest diverged from sequential", p)
				}
			}
		})
	}
}

// runOverCapProgram breaks the send cap in round 2 (machine 11 sends 20
// words to machine 12 under a cap of 16) and runs two more rounds, the first
// sending, the second only receiving. It returns the Stats after round 2 and
// at the end, and the digest of both rounds' deliveries.
func runOverCapProgram(parallelism int) (Stats, Stats, string) {
	const M = 41
	c := NewCluster(Config{Machines: M, LocalMemory: 16, Parallelism: parallelism})
	c.Step(func(m *Machine, inbox []Message) []Message {
		return []Message{{To: (m.ID + 3) % M, Payload: word(uint64(m.ID))}}
	})
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID == 11 {
			return []Message{{To: 12, Payload: U64s(make([]uint64, 20))}}
		}
		return []Message{{To: (m.ID + 1) % M, Payload: word(2)}}
	})
	overCap := c.Stats()
	got := make([]string, M)
	c.Step(func(m *Machine, inbox []Message) []Message {
		for _, msg := range inbox {
			got[m.ID] += fmt.Sprintf("(f%d w%d)", msg.From, msg.Payload.Words())
		}
		got[m.ID] += "|"
		if m.ID%2 == 0 {
			return []Message{{To: (m.ID + 2) % M, Payload: word(9)}}
		}
		return nil
	})
	c.Step(func(m *Machine, inbox []Message) []Message {
		for _, msg := range inbox {
			got[m.ID] += fmt.Sprintf("(f%d w%d)", msg.From, msg.Payload.Words())
		}
		return nil
	})
	digest := ""
	for i := 0; i < M; i++ {
		digest += fmt.Sprintf("m%d: %s\n", i, got[i])
	}
	return overCap, c.Stats(), digest
}

// TestViolationMidRouteDeterministic asserts that a send-cap violation met
// mid-route is recorded with the identical strings and Stats at parallelism
// 1, 2 and 8, and that the over-cap round delivers exactly as at p1: its
// messages arrive once, in the next round, and never after.
func TestViolationMidRouteDeterministic(t *testing.T) {
	baseOver, baseFinal, baseDigest := runOverCapProgram(1)
	want := []string{
		"machine 11 sent 20 words in one round (cap 16)",
		"machine 12 received 20 words in one round (cap 16)",
	}
	if !reflect.DeepEqual(baseOver.Violations, want) {
		t.Fatalf("violations %q, want %q", baseOver.Violations, want)
	}
	if !strings.Contains(baseDigest, "m12: (f11 w20)|") || strings.Count(baseDigest, "w20") != 1 {
		t.Errorf("the over-cap message was not delivered exactly once:\n%s", baseDigest)
	}
	for _, p := range []int{2, 8} {
		over, final, digest := runOverCapProgram(p)
		if !reflect.DeepEqual(over, baseOver) || !reflect.DeepEqual(final, baseFinal) {
			t.Errorf("parallelism %d: stats diverged\nseq: %+v %+v\npar: %+v %+v", p, baseOver, baseFinal, over, final)
		}
		if digest != baseDigest {
			t.Errorf("parallelism %d: delivery digest diverged\nseq:\n%s\npar:\n%s", p, baseDigest, digest)
		}
	}
}

// runInvalidProgram sends to an invalid destination in round 2: machine 11
// sends a valid message, one to machine M+3 and another valid one, after
// machines 0–10 have been routed. It runs two more rounds, the first sending, the second
// only receiving, and returns the Stats after round 2 and at the end, and
// the digest of both rounds' deliveries.
func runInvalidProgram(t *testing.T, parallelism int) (Stats, Stats, string) {
	t.Helper()
	const M = 41
	c := NewCluster(Config{Machines: M, LocalMemory: 16, Parallelism: parallelism})
	c.Step(func(m *Machine, inbox []Message) []Message {
		return []Message{{To: (m.ID + 3) % M, Payload: word(100 + uint64(m.ID))}}
	})
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID == 11 {
			return []Message{{To: 12, Payload: word(5)}, {To: M + 3, Payload: word(6)}, {To: 13, Payload: word(7)}}
		}
		return []Message{{To: (m.ID + 1) % M, Payload: word(2)}}
	})
	invalid := c.Stats()
	got := make([]string, M)
	record := func(m *Machine, inbox []Message) {
		for _, msg := range inbox {
			v := uint64(msg.Payload.(word))
			if v == 6 {
				t.Errorf("machine %d was delivered the message sent to an invalid machine", m.ID)
			}
			got[m.ID] += fmt.Sprintf("(f%d v%d)", msg.From, v)
		}
	}
	c.Step(func(m *Machine, inbox []Message) []Message {
		record(m, inbox)
		got[m.ID] += "|"
		if m.ID%2 == 0 {
			return []Message{{To: (m.ID + 2) % M, Payload: word(9)}}
		}
		return nil
	})
	c.Step(func(m *Machine, inbox []Message) []Message {
		record(m, inbox)
		return nil
	})
	digest := ""
	for i := 0; i < M; i++ {
		digest += fmt.Sprintf("m%d: %s\n", i, got[i])
	}
	return invalid, c.Stats(), digest
}

// TestInvalidDestinationDeterministic asserts that a message to an invalid
// machine, met mid-route after earlier senders' messages are already in the
// spare inboxes, is recorded with the identical text at parallelism 1 and
// 8, is dropped uncounted, and that every valid message of its round is
// delivered, identically at both settings.
func TestInvalidDestinationDeterministic(t *testing.T) {
	baseInvalid, baseFinal, baseDigest := runInvalidProgram(t, 1)
	if want := []string{"machine 11 sent to invalid machine 44"}; !reflect.DeepEqual(baseInvalid.Violations, want) {
		t.Fatalf("violations %q, want %q", baseInvalid.Violations, want)
	}
	if baseInvalid.Messages != 83 {
		t.Errorf("%d messages routed in two rounds, want 83 (the invalid one is dropped)", baseInvalid.Messages)
	}
	if !strings.Contains(baseDigest, "m12: (f11 v5)|") || !strings.Contains(baseDigest, "m13: (f11 v7)(f12 v2)|") ||
		strings.Count(baseDigest, " v2)") != 40 {
		t.Errorf("round 2's valid messages were not all delivered:\n%s", baseDigest)
	}
	invalid, final, digest := runInvalidProgram(t, 8)
	if !reflect.DeepEqual(invalid, baseInvalid) {
		t.Errorf("parallelism 8: stats after the invalid send diverged\nseq: %+v\npar: %+v", baseInvalid, invalid)
	}
	if !reflect.DeepEqual(final, baseFinal) {
		t.Errorf("parallelism 8: final stats diverged\nseq: %+v\npar: %+v", baseFinal, final)
	}
	if digest != baseDigest {
		t.Errorf("parallelism 8: delivery digest diverged\nseq:\n%s\npar:\n%s", baseDigest, digest)
	}
}
