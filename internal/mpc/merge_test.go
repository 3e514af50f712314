package mpc

import (
	"fmt"
	"reflect"
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

// runStrictMidMergeProgram raises a Strict-mode violation in the send-cap
// check of round 2 (after the route has already filled part of the spare
// inboxes), recovers it, and runs two more benign rounds. It returns the
// recovered panic message and the post-recovery delivery digest.
func runStrictMidMergeProgram(t *testing.T, parallelism int) (string, string) {
	t.Helper()
	const M = 41
	c := NewCluster(Config{Machines: M, LocalMemory: 16, Strict: true, Parallelism: parallelism})
	c.Step(func(m *Machine, inbox []Message) []Message {
		return []Message{{To: (m.ID + 3) % M, Payload: word(uint64(m.ID))}}
	})
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		c.Step(func(m *Machine, inbox []Message) []Message {
			if m.ID == 11 {
				// Over the send cap: routed into the spare inboxes, then the
				// sender's cap check panics mid-route.
				return []Message{{To: 12, Payload: U64s(make([]uint64, 20))}}
			}
			return []Message{{To: (m.ID + 1) % M, Payload: word(2)}}
		})
	}()
	if panicked == nil {
		t.Fatal("strict over-cap send did not panic")
	}
	// Recovery: the partly routed round must be discarded, not delivered.
	digest := ""
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID%2 == 0 {
			return []Message{{To: (m.ID + 2) % M, Payload: word(9)}}
		}
		return nil
	})
	got := make([]string, M)
	c.Step(func(m *Machine, inbox []Message) []Message {
		for _, msg := range inbox {
			got[m.ID] += fmt.Sprintf("(f%d w%d)", msg.From, msg.Payload.Words())
		}
		return nil
	})
	for i := 0; i < M; i++ {
		digest += fmt.Sprintf("m%d: %s\n", i, got[i])
	}
	return fmt.Sprint(panicked), digest
}

// TestStrictViolationMidMergeDeterministic asserts that a Strict-mode
// violation raised mid-round — after the compute phase, during the route —
// panics with the identical message at parallelism 1 and 8, and that
// recovery leaves the identical observable state: the abandoned round's
// messages never leak into later rounds at any worker count.
func TestStrictViolationMidMergeDeterministic(t *testing.T) {
	baseMsg, baseDigest := runStrictMidMergeProgram(t, 1)
	for _, p := range []int{2, 8} {
		msg, digest := runStrictMidMergeProgram(t, p)
		if msg != baseMsg {
			t.Errorf("parallelism %d: panic message %q, want %q", p, msg, baseMsg)
		}
		if digest != baseDigest {
			t.Errorf("parallelism %d: post-recovery digest diverged\nseq:\n%s\npar:\n%s", p, baseDigest, digest)
		}
	}
}

// runStrictInvalidProgram raises a Strict-mode invalid-destination
// violation in round 2: machine 11 sends a valid message and then one to
// machine M+3, after machines 0–10 have been routed. It recovers the panic
// and runs two more rounds, the first sending, the second only receiving.
// It returns the panic text, the Stats after recovery and at the end, and
// the digest of both rounds' deliveries.
func runStrictInvalidProgram(t *testing.T, parallelism int) (string, Stats, Stats, string) {
	t.Helper()
	const M = 41
	c := NewCluster(Config{Machines: M, LocalMemory: 16, Strict: true, Parallelism: parallelism})
	c.Step(func(m *Machine, inbox []Message) []Message {
		return []Message{{To: (m.ID + 3) % M, Payload: word(100 + uint64(m.ID))}}
	})
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		c.Step(func(m *Machine, inbox []Message) []Message {
			if m.ID == 11 {
				return []Message{{To: 12, Payload: word(5)}, {To: M + 3, Payload: word(6)}}
			}
			return []Message{{To: (m.ID + 1) % M, Payload: word(2)}}
		})
	}()
	if panicked == nil {
		t.Fatal("strict send to an invalid machine did not panic")
	}
	recovered := c.Stats()
	got := make([]string, M)
	record := func(m *Machine, inbox []Message) {
		for _, msg := range inbox {
			v := uint64(msg.Payload.(word))
			if v == 2 || v == 5 || v == 6 {
				t.Errorf("machine %d was delivered %d from machine %d of the aborted round", m.ID, v, msg.From)
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
	return fmt.Sprint(panicked), recovered, c.Stats(), digest
}

// TestStrictInvalidDestinationDeterministic asserts that a Strict-mode
// invalid destination, raised mid-route after earlier senders' messages are
// already in the spare inboxes, panics with the identical text at
// parallelism 1 and 8, leaves identical Stats, and that the next two rounds
// deliver identically and nothing of the aborted round.
func TestStrictInvalidDestinationDeterministic(t *testing.T) {
	baseMsg, baseRecovered, baseFinal, baseDigest := runStrictInvalidProgram(t, 1)
	if want := "mpc: machine 11 sent to invalid machine 44"; baseMsg != want {
		t.Fatalf("panic text %q, want %q", baseMsg, want)
	}
	msg, recovered, final, digest := runStrictInvalidProgram(t, 8)
	if msg != baseMsg {
		t.Errorf("parallelism 8: panic text %q, want %q", msg, baseMsg)
	}
	if !reflect.DeepEqual(recovered, baseRecovered) {
		t.Errorf("parallelism 8: stats after recovery diverged\nseq: %+v\npar: %+v", baseRecovered, recovered)
	}
	if !reflect.DeepEqual(final, baseFinal) {
		t.Errorf("parallelism 8: final stats diverged\nseq: %+v\npar: %+v", baseFinal, final)
	}
	if digest != baseDigest {
		t.Errorf("parallelism 8: post-recovery digest diverged\nseq:\n%s\npar:\n%s", baseDigest, digest)
	}
}
