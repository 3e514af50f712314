package mpc

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

func TestNewExecutorSelection(t *testing.T) {
	if p := NewExecutor(0).Parallelism(); p != 1 {
		t.Errorf("NewExecutor(0).Parallelism() = %d, want 1", p)
	}
	if p := NewExecutor(1).Parallelism(); p != 1 {
		t.Errorf("NewExecutor(1).Parallelism() = %d, want 1", p)
	}
	if p := NewExecutor(4).Parallelism(); p != 4 {
		t.Errorf("NewExecutor(4).Parallelism() = %d, want 4", p)
	}
	if p := NewExecutor(-1).Parallelism(); p != runtime.NumCPU() && runtime.NumCPU() > 1 {
		t.Errorf("NewExecutor(-1).Parallelism() = %d, want NumCPU %d", p, runtime.NumCPU())
	}
	// A pool of one worker degenerates to the sequential executor.
	if _, seq := NewWorkerPool(1).(sequentialExecutor); !seq {
		t.Error("NewWorkerPool(1) is not the sequential executor")
	}
}

func TestExecutorRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7} {
		ex := NewWorkerPool(workers)
		for _, n := range []int{0, 1, 2, 5, 16, 33, 100} {
			counts := make([]int, n)
			ex.Run(n, func(i int) { counts[i]++ })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestWorkerPoolPanicPropagation(t *testing.T) {
	ex := NewWorkerPool(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-panic")
		}
		// Indices 3 and 7 both panic in different chunks; the re-panic must
		// deterministically carry the lowest index's value.
		if r != "boom-3" {
			t.Fatalf("recovered %v, want boom-3", r)
		}
	}()
	ex.Run(8, func(i int) {
		if i == 3 || i == 7 {
			panic(fmt.Sprintf("boom-%d", i))
		}
	})
}

// TestExecutorPanicContract pins the panic contract both executors share:
// the re-panic value is the panic of the lowest panicking index (nothing
// below it panics, so it always runs), every index below the lowest
// panicking one is invoked exactly once, and no index is ever invoked
// twice — under the sequential loop and under chunked work stealing alike.
func TestExecutorPanicContract(t *testing.T) {
	const n, bomb = 100, 37
	for _, tc := range []struct {
		name string
		ex   Executor
	}{
		{"sequential", NewSequentialExecutor()},
		{"pool-4", NewWorkerPool(4)},
		{"pool-7", NewWorkerPool(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := make([]int, n)
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("Run did not re-panic")
					}
					if r != fmt.Sprintf("boom-%d", bomb) {
						t.Fatalf("recovered %v, want boom-%d", r, bomb)
					}
				}()
				tc.ex.Run(n, func(i int) {
					counts[i]++
					if i == bomb || i == bomb+40 {
						panic(fmt.Sprintf("boom-%d", i))
					}
				})
			}()
			for i := 0; i < bomb; i++ {
				if counts[i] != 1 {
					t.Fatalf("index %d below the panicking index ran %d times, want 1", i, counts[i])
				}
			}
			for i, c := range counts {
				if c > 1 {
					t.Fatalf("index %d ran %d times", i, c)
				}
			}
			if counts[bomb] != 1 {
				t.Fatalf("panicking index ran %d times, want 1", counts[bomb])
			}
		})
	}
}

// runPanicRecoveryProgram drives the cluster-level panic contract: a benign
// messaging round, a round whose StepFunc panics at a fixed machine,
// recovery, and a continuation round that overwrites every per-machine slot
// the panicking round may have partially written. The observable cluster
// state — the panic value, Stats (the panicked round merges nothing), the
// redelivered inbox of the continuation round, and the final stores — must
// be bit-identical under both executors.
func runPanicRecoveryProgram(t *testing.T, parallelism int) (Stats, string) {
	t.Helper()
	const M, bomb = 33, 17
	c := NewCluster(Config{Machines: M, LocalMemory: 64, Parallelism: parallelism})
	// Round A: every machine sends two messages.
	c.Step(func(m *Machine, inbox []Message) []Message {
		return []Message{
			{To: (m.ID + 1) % M, Payload: word(uint64(m.ID))},
			{To: (m.ID + 5) % M, Payload: U64s{uint64(m.ID), uint64(m.ID)}},
		}
	})
	statsBefore := c.Stats()
	// Round B: panics at machine `bomb` before any state is written there;
	// other machines may or may not have run (scheduling-dependent), so
	// everything they write must be overwritten by round C.
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		c.Step(func(m *Machine, inbox []Message) []Message {
			if m.ID == bomb {
				panic(fmt.Sprintf("boom-%d", m.ID))
			}
			m.Set("scratch", word(uint64(m.ID)))
			return []Message{{To: 0, Payload: word(1)}}
		})
	}()
	if panicked != fmt.Sprintf("boom-%d", bomb) {
		t.Fatalf("recovered %v, want boom-%d", panicked, bomb)
	}
	if got := c.Stats(); !reflect.DeepEqual(got, statsBefore) {
		t.Fatalf("panicked round mutated Stats:\nbefore: %+v\nafter:  %+v", statsBefore, got)
	}
	// Round C: round A's messages must be redelivered (round B never merged
	// or consumed them), and every machine overwrites the scratch slot.
	delivered := make([][]int, M)
	c.Step(func(m *Machine, inbox []Message) []Message {
		for _, msg := range inbox {
			delivered[m.ID] = append(delivered[m.ID], msg.From)
		}
		m.Set("scratch", U64s{uint64(m.ID), uint64(len(inbox))})
		return nil
	})
	digest := ""
	for i := 0; i < M; i++ {
		digest += fmt.Sprintf("m%d: state=%d delivered=%v\n", i, c.Machine(i).StateWords(), delivered[i])
	}
	return c.Stats(), digest
}

// TestStepPanicRecoveryDeterministic asserts the identical observable
// cluster state after recovering a StepFunc panic at a fixed machine index,
// across the sequential executor and work-stealing pools of several widths.
func TestStepPanicRecoveryDeterministic(t *testing.T) {
	baseStats, baseDigest := runPanicRecoveryProgram(t, 1)
	for _, p := range []int{2, 4, 8} {
		st, digest := runPanicRecoveryProgram(t, p)
		if !reflect.DeepEqual(st, baseStats) {
			t.Errorf("parallelism %d: stats diverged\nseq: %+v\npar: %+v", p, baseStats, st)
		}
		if digest != baseDigest {
			t.Errorf("parallelism %d: digest diverged\nseq:\n%s\npar:\n%s", p, baseDigest, digest)
		}
	}
}

func TestStrictViolationPanicsUnderParallel(t *testing.T) {
	c := NewCluster(Config{Machines: 8, LocalMemory: 1, Strict: true, Parallelism: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("strict parallel cluster did not panic on violation")
		}
	}()
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID != 0 {
			return nil
		}
		return []Message{{To: 1, Payload: U64s{1, 2, 3}}}
	})
}

// runEngineProgram drives a deterministic multi-round program that exercises
// point-to-point sends of varying sizes, deliberate cap violations, invalid
// destinations, store growth, LocalAll, and the collectives. It returns the
// final stats and a machine-order digest of all state and delivery orders.
func runEngineProgram(parallelism int) (Stats, string) {
	const M = 33
	c := NewCluster(Config{Machines: M, LocalMemory: 64, Parallelism: parallelism})
	c.LocalAll(func(m *Machine) {
		m.Set("shard", U64s(make([]uint64, 1+m.ID%7)))
	})
	delivered := make([][]int, M) // per-machine sender sequence, round 2
	// Round 1: every machine sends to a spread of destinations, including an
	// invalid one from machine 5 and an oversend from machine 6.
	c.Step(func(m *Machine, inbox []Message) []Message {
		var out []Message
		for k := 1; k <= 3; k++ {
			out = append(out, Message{To: (m.ID + k*k) % M, Payload: U64s(make([]uint64, k))})
		}
		if m.ID == 5 {
			out = append(out, Message{To: M + 40, Payload: word(1)})
		}
		if m.ID == 6 {
			out = append(out, Message{To: 7, Payload: U64s(make([]uint64, 100))})
		}
		return out
	})
	// Round 2: record exact delivery order, grow stores.
	c.Step(func(m *Machine, inbox []Message) []Message {
		for _, msg := range inbox {
			delivered[m.ID] = append(delivered[m.ID], msg.From)
		}
		m.Set("grown", U64s(make([]uint64, len(inbox))))
		return nil
	})
	// Collectives on top of the same engine.
	c.Broadcast(3, "bc", U64s{1, 2, 3})
	sum := c.Ask(0, U64s{1},
		func(m *Machine, q Sized) *MessageBatch {
			b := AcquireMessageBatch()
			b.Append(0, q.(U64s)[0]*uint64(m.ID))
			return b
		}, SumValues)
	c.Tell(2, U64s{4, 5}, func(m *Machine, msg Sized) {
		m.Set("told", U64s(make([]uint64, len(msg.(U64s))+m.ID%2)))
	})
	gathered := c.Ask(1, word(11),
		func(m *Machine, q Sized) *MessageBatch {
			if m.ID%3 != 0 {
				return nil
			}
			b := AcquireMessageBatch()
			b.Append(uint64(m.ID), uint64(m.ID)*uint64(q.(word)))
			return b
		}, KeepFirst)
	digest := fmt.Sprintf("sum=%v gathered=%v\n", sum.Raw(), gathered.Raw())
	for i := 0; i < M; i++ {
		digest += fmt.Sprintf("m%d: state=%d delivered=%v\n", i, c.Machine(i).StateWords(), delivered[i])
	}
	return c.Stats(), digest
}

// TestEngineDeterministicAcrossParallelism is the engine's core guarantee:
// the same program yields bit-identical Stats (including violation strings
// in order), identical per-machine delivery order, and identical state at
// parallelism 1, 4, and NumCPU.
func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	baseStats, baseDigest := runEngineProgram(1)
	if len(baseStats.Violations) == 0 {
		t.Fatal("program was expected to record violations")
	}
	for _, p := range []int{4, -1} {
		st, digest := runEngineProgram(p)
		if !reflect.DeepEqual(st, baseStats) {
			t.Errorf("parallelism %d: stats diverged\nseq: %+v\npar: %+v", p, baseStats, st)
		}
		if digest != baseDigest {
			t.Errorf("parallelism %d: state/delivery digest diverged\nseq:\n%s\npar:\n%s", p, baseDigest, digest)
		}
	}
}

func TestSortByKeyDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) (Stats, string) {
		const M = 9
		c := NewCluster(Config{Machines: M, LocalMemory: 256, Parallelism: parallelism})
		c.LocalAll(func(m *Machine) {
			keys := make(U64s, 0, 20)
			for k := 0; k < 20; k++ {
				keys = append(keys, uint64((m.ID*7919+k*104729)%1000))
			}
			m.Set("keys", keys)
		})
		var got string
		c.SortByKey(
			func(m *Machine) []uint64 { return m.Get("keys").(U64s) },
			func(m *Machine, keys []uint64) { m.Set("keys", U64s(keys)) },
			1,
		)
		for i := 0; i < M; i++ {
			got += fmt.Sprintf("%v\n", c.Machine(i).Get("keys"))
		}
		return c.Stats(), got
	}
	seqStats, seqOut := run(1)
	parStats, parOut := run(4)
	if !reflect.DeepEqual(seqStats, parStats) {
		t.Errorf("stats diverged\nseq: %+v\npar: %+v", seqStats, parStats)
	}
	if seqOut != parOut {
		t.Errorf("sorted output diverged\nseq:\n%s\npar:\n%s", seqOut, parOut)
	}
}

func TestParallelismAccessor(t *testing.T) {
	if p := NewCluster(Config{Machines: 2, LocalMemory: 8}).Parallelism(); p != 1 {
		t.Errorf("default cluster parallelism = %d, want 1", p)
	}
	if p := NewCluster(Config{Machines: 2, LocalMemory: 8, Parallelism: 3}).Parallelism(); p != 3 {
		t.Errorf("parallel cluster parallelism = %d, want 3", p)
	}
}
