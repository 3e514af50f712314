package snapshot

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// counterState is a DeltaState double: an integer with a journal of the
// increments applied since the last acknowledged checkpoint, so a delta
// carries exactly the unacked churn.
type counterState struct {
	tag     uint64
	value   int
	journal int
	// declines makes CheckpointDelta refuse, as a state whose Journal was
	// dropped does.
	declines bool
}

func (c *counterState) bump(n int) { c.value += n; c.journal += n }

func (c *counterState) Checkpoint(e *Encoder) {
	e.Begin(c.tag)
	e.Int(c.value)
}

func (c *counterState) Restore(d *Decoder) error {
	d.Begin(c.tag)
	c.value = d.Int()
	c.journal = 0
	return d.Err()
}

func (c *counterState) CheckpointDelta(e *Encoder) bool {
	e.Begin(c.tag)
	e.Int(c.journal)
	return !c.declines
}

func (c *counterState) RestoreDelta(d *Decoder) (Replay, error) {
	d.Begin(c.tag)
	n := d.Int()
	c.value += n
	c.journal = 0
	return Replay{Batches: 1, Updates: n}, d.Err()
}

func (c *counterState) AckCheckpoint() { c.journal, c.declines = 0, false }

// atStage arms the crash failpoint to panic (simulating the process dying)
// at the named atomic-write stage, and returns a disarm func.
func atStage(stage string) func() {
	crashPoint = func(s string) {
		if s == stage {
			panic("crash injected at " + s)
		}
	}
	return func() { crashPoint = nil }
}

// mustPanic runs f and asserts the armed failpoint fired.
func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("armed crash failpoint did not fire")
		}
	}()
	f()
}

// TestWriteFileAtomicCrashPoints is the crash-atomicity property: a process
// dying at any stage of the atomic write leaves either the old snapshot
// complete or the new one complete — LoadFile succeeds either way and never
// sees a torn file. A death before the rename orphans the temp file, which
// SweepStaleTemps then removes.
func TestWriteFileAtomicCrashPoints(t *testing.T) {
	for _, tc := range []struct {
		stage     string
		wantValue int  // which complete snapshot survives
		wantTemp  bool // is a temp orphan left behind?
	}{
		{"temp-written", 111, true}, // old file intact, new bytes stranded in the temp
		{"renamed", 222, false},     // rename happened: new file is it, temp consumed
	} {
		t.Run(tc.stage, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.snap")
			if err := WriteFileAtomic(path, &fakeState{tag: 3, value: 111}); err != nil {
				t.Fatal(err)
			}
			disarm := atStage(tc.stage)
			mustPanic(t, func() {
				_ = WriteFileAtomic(path, &fakeState{tag: 3, value: 222})
			})
			disarm()

			got := &fakeState{tag: 3}
			if err := LoadFile(path, got); err != nil {
				t.Fatalf("snapshot torn after crash at %s: %v", tc.stage, err)
			}
			if got.value != tc.wantValue {
				t.Errorf("crash at %s: loaded %d, want %d", tc.stage, got.value, tc.wantValue)
			}
			swept, err := SweepStaleTemps(path)
			if err != nil {
				t.Fatal(err)
			}
			if (len(swept) > 0) != tc.wantTemp {
				t.Errorf("crash at %s: swept %v, want orphan=%v", tc.stage, swept, tc.wantTemp)
			}
			// The swept directory is clean and writable again.
			if err := WriteFileAtomic(path, &fakeState{tag: 3, value: 333}); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Errorf("directory holds %d entries after sweep+rewrite, want 1", len(entries))
			}
		})
	}
}

// TestSweepStaleTempsScope pins what the sweep may and may not remove: temp
// files of the snapshot and of its delta files go, the live snapshot, its
// deltas, and unrelated files stay.
func TestSweepStaleTempsScope(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	keep := []string{"state.snap", "state.snap.delta-001", "other.snap", "other.snap.tmp1"}
	remove := []string{"state.snap.tmp123", "state.snap.delta-002.tmp9"}
	for _, name := range append(append([]string{}, keep...), remove...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	swept, err := SweepStaleTemps(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != len(remove) {
		t.Errorf("swept %v, want exactly %v", swept, remove)
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("sweep removed %s, which it must not touch", name)
		}
	}
	for _, name := range remove {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("sweep left %s behind", name)
		}
	}
	// Missing directory: nothing to sweep, not an error.
	if swept, err := SweepStaleTemps(filepath.Join(dir, "missing", "x.snap")); err != nil || swept != nil {
		t.Errorf("sweep of missing dir = (%v, %v), want (nil, nil)", swept, err)
	}
}

// TestChainCheckpointRestore walks a chain through full base, deltas,
// compaction, and a fresh-process restore at every step: the restored value
// must always equal the live one.
func TestChainCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	live := &counterState{tag: 3}
	chain := OpenChain(path, 2)

	checkRestore := func(step string, wantLen int) {
		t.Helper()
		got := &counterState{tag: 3}
		rc := OpenChain(path, 2)
		ok, err := rc.Restore(got)
		if err != nil || !ok {
			t.Fatalf("%s: restore = (%v, %v)", step, ok, err)
		}
		if got.value != live.value {
			t.Errorf("%s: restored %d, live %d", step, got.value, live.value)
		}
		if rc.Len() != wantLen {
			t.Errorf("%s: chain length %d, want %d", step, rc.Len(), wantLen)
		}
	}

	live.bump(10)
	if kind, _, err := chain.Checkpoint(live); err != nil || kind != KindFull {
		t.Fatalf("first checkpoint = (%s, %v), want full", kind, err)
	}
	checkRestore("after base", 0)

	live.bump(5)
	if kind, _, err := chain.Checkpoint(live); err != nil || kind != KindDelta {
		t.Fatalf("second checkpoint = (%s, %v), want delta", kind, err)
	}
	checkRestore("after delta 1", 1)

	live.bump(7)
	if kind, _, err := chain.Checkpoint(live); err != nil || kind != KindDelta {
		t.Fatalf("third checkpoint = (%s, %v), want delta", kind, err)
	}
	checkRestore("after delta 2", 2)

	// Chain is at maxDeltas: the next checkpoint compacts into a fresh base
	// and removes the stale delta files.
	live.bump(1)
	if kind, _, err := chain.Checkpoint(live); err != nil || kind != KindFull {
		t.Fatalf("compaction checkpoint = (%s, %v), want full", kind, err)
	}
	checkRestore("after compaction", 0)
	for _, stale := range []string{path + ".delta-001", path + ".delta-002"} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Errorf("compaction left %s behind", stale)
		}
	}

	// An unacked journal folds into the next delta: a failed ack never loses
	// churn (simulated here by bumping twice between checkpoints).
	live.bump(2)
	live.bump(3)
	if kind, _, err := chain.Checkpoint(live); err != nil || kind != KindDelta {
		t.Fatalf("post-compaction checkpoint = (%s, %v), want delta", kind, err)
	}
	checkRestore("after post-compaction delta", 1)
}

// TestChainCrashMidCompaction injects a death between compaction's base
// rewrite and its delta cleanup: the leftover delta files name the old base
// identity, and the next restore must sweep them as orphans rather than
// replay them onto the new base.
func TestChainCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	live := &counterState{tag: 3}
	chain := OpenChain(path, 2)
	live.bump(10)
	if _, _, err := chain.Checkpoint(live); err != nil {
		t.Fatal(err)
	}
	live.bump(5)
	if _, _, err := chain.Checkpoint(live); err != nil {
		t.Fatal(err)
	}
	live.bump(7)
	if _, _, err := chain.Checkpoint(live); err != nil {
		t.Fatal(err)
	}

	// A new process compacts but dies right after the base rename, before
	// removing the now-stale deltas.
	proc2 := OpenChain(path, 2)
	st2 := &counterState{tag: 3}
	if ok, err := proc2.Restore(st2); err != nil || !ok {
		t.Fatalf("proc2 restore = (%v, %v)", ok, err)
	}
	st2.bump(100)
	disarm := atStage("renamed")
	mustPanic(t, func() {
		proc2.Checkpoint(st2) // compaction due: seq == maxDeltas
	})
	disarm()
	for _, stale := range []string{path + ".delta-001", path + ".delta-002"} {
		if _, err := os.Stat(stale); err != nil {
			t.Fatalf("expected stale delta %s to survive the crash: %v", stale, err)
		}
	}

	// Restore in a third process: new base, orphaned deltas swept.
	proc3 := OpenChain(path, 2)
	st3 := &counterState{tag: 3}
	ok, err := proc3.Restore(st3)
	if err != nil || !ok {
		t.Fatalf("proc3 restore = (%v, %v)", ok, err)
	}
	if st3.value != st2.value {
		t.Errorf("restored %d, want the compacted base's %d", st3.value, st2.value)
	}
	if proc3.OrphansRemoved() != 2 {
		t.Errorf("swept %d orphans, want 2", proc3.OrphansRemoved())
	}
	for _, stale := range []string{path + ".delta-001", path + ".delta-002"} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Errorf("orphan %s not swept", stale)
		}
	}
	// The chain extends cleanly from here.
	st3.bump(1)
	if kind, _, err := proc3.Checkpoint(st3); err != nil || kind != KindDelta {
		t.Fatalf("post-sweep checkpoint = (%s, %v), want delta", kind, err)
	}
}

// TestChainCrashMidDeltaWrite injects a death before a delta's rename: the
// chain on disk is untouched (old-complete), the stranded temp is swept on
// the next start, and the restarted process — which cannot know whether its
// last delta landed — writes a full base next, not a delta.
func TestChainCrashMidDeltaWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	live := &counterState{tag: 3}
	chain := OpenChain(path, 2)
	live.bump(10)
	if _, _, err := chain.Checkpoint(live); err != nil {
		t.Fatal(err)
	}
	live.bump(5)
	disarm := atStage("temp-written")
	mustPanic(t, func() {
		chain.Checkpoint(live)
	})
	disarm()
	if _, err := os.Stat(path + ".delta-001"); !os.IsNotExist(err) {
		t.Fatal("delta file exists even though the crash hit before rename")
	}

	// Restart: sweep finds the stranded delta temp, restore sees just the
	// base (old-complete state), and the journal still holds the unacked
	// churn so nothing is lost.
	swept, err := SweepStaleTemps(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 1 || !strings.Contains(swept[0], ".delta-001.tmp") {
		t.Errorf("swept %v, want the stranded delta temp", swept)
	}
	proc2 := OpenChain(path, 2)
	st2 := &counterState{tag: 3}
	if ok, err := proc2.Restore(st2); err != nil || !ok {
		t.Fatalf("restore = (%v, %v)", ok, err)
	}
	if st2.value != 10 {
		t.Errorf("restored %d, want the base's 10 (the torn delta must not apply)", st2.value)
	}
}
