package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// journalSection encodes j alone in a section of a full container and returns
// a decoder positioned inside that section.
func journalSection(t *testing.T, j *Journal) *Decoder {
	t.Helper()
	e := NewEncoder()
	e.Begin(5)
	if !j.Encode(e) {
		t.Fatal("journal declined to encode")
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin(5)
	return d
}

// TestJournalRoundTrip pins what a journal keeps: the batches in order with
// their boundaries (an empty one included), copied — the caller may reuse the
// slice it handed to Record — and what a replay reports.
func TestJournalRoundTrip(t *testing.T) {
	var j Journal
	reused := graph.Batch{graph.Ins(0, 1), graph.InsW(2, 3, 9)}
	want := []graph.Batch{{graph.Ins(0, 1), graph.InsW(2, 3, 9)}, {}, {graph.Del(0, 1)}}
	j.Record(reused, 10)
	reused[0] = graph.Del(4, 5)
	j.Record(nil, 10)
	j.Record(graph.Batch{graph.Del(0, 1)}, 10)
	if j.Len() != 3 {
		t.Fatalf("journal holds %d updates, want 3", j.Len())
	}
	d := journalSection(t, &j)
	var got []graph.Batch
	r, err := ReplayJournal(d, 6, 2, func(b graph.Batch) error {
		got = append(got, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if r != (Replay{Batches: 3, Updates: 3}) {
		t.Errorf("replay reports %+v", r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %v, recorded %v", got, want)
	}
}

// TestJournalBoundAndDrop pins the life cycle: a journal past its bound, or
// dropped by its owner, holds nothing, records nothing and declines to
// encode, until Reset starts it over.
func TestJournalBoundAndDrop(t *testing.T) {
	var j Journal
	two := graph.Batch{graph.Ins(0, 1), graph.Ins(1, 2)}
	j.Record(two, 3)
	j.Record(two, 4) // exactly at the bound: kept
	if j.Len() != 4 {
		t.Fatalf("journal at its bound holds %d updates, want 4", j.Len())
	}
	for name, drop := range map[string]func(){
		"overflow": func() { j.Record(two, 3) },
		"Drop":     j.Drop,
	} {
		drop()
		j.Record(two, 100)
		if j.Len() != 0 {
			t.Errorf("%s: dropped journal holds %d updates", name, j.Len())
		}
		e := NewEncoder()
		e.Begin(5)
		if j.Encode(e) {
			t.Errorf("%s: dropped journal encoded", name)
		}
		j.Reset()
		j.Record(two, 100)
		if j.Len() != 2 || !j.Encode(e) {
			t.Errorf("%s: journal after Reset holds %d updates", name, j.Len())
		}
	}
}

// TestReplayJournalStopsAtFirstError pins the order of a replay: a batch is
// validated, then applied, then the next is read; the first error — the
// journal's or apply's — ends it, naming the batch.
func TestReplayJournalStopsAtFirstError(t *testing.T) {
	var j Journal
	j.Record(graph.Batch{graph.Ins(0, 1)}, 10)
	j.Record(graph.Batch{graph.Ins(1, 2), graph.Ins(2, 3)}, 10)
	j.Record(graph.Batch{graph.Ins(3, 4)}, 10)

	applied := 0
	count := func(graph.Batch) error { applied++; return nil }
	if _, err := ReplayJournal(journalSection(t, &j), 5, 1, count); err == nil || !strings.Contains(err.Error(), "journal batch 1 of 3: 2 updates exceed the batch cap 1") {
		t.Errorf("oversize batch: %v", err)
	}
	if applied != 1 {
		t.Errorf("%d batches applied before the oversize one was rejected, want 1", applied)
	}
	if _, err := ReplayJournal(journalSection(t, &j), 4, 2, count); err == nil || !strings.Contains(err.Error(), "journal batch 2 of 3: edge {3,4}: vertex out of range [0,4)") {
		t.Errorf("vertex out of range: %v", err)
	}
	boom := errors.New("boom")
	r, err := ReplayJournal(journalSection(t, &j), 5, 2, func(b graph.Batch) error {
		if len(b) == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || r != (Replay{Batches: 1, Updates: 1}) {
		t.Errorf("failing apply: replay (%+v, %v), want one batch then boom", r, err)
	}
}

// TestChainFullBaseWhenAStateDeclines is the chain's one refusal path: on a
// linked chain with room for deltas, a state that declines, or one that
// cannot write deltas at all, gets a full base — acknowledged like any
// other, so the checkpoint after it is a delta again.
func TestChainFullBaseWhenAStateDeclines(t *testing.T) {
	store := NewMemStore()
	chain := OpenChainIn(store, "s", 4)
	a := &counterState{tag: 3}
	cut := func(want string, state State) {
		t.Helper()
		a.bump(1)
		if kind, _, err := chain.Checkpoint(state); err != nil || kind != want {
			t.Fatalf("checkpoint = (%s, %v), want %s", kind, err, want)
		}
	}
	cut(KindFull, a)
	cut(KindDelta, a)
	a.declines = true
	cut(KindFull, a)
	if chain.Len() != 0 {
		t.Errorf("chain holds %d deltas after a declined one, want 0", chain.Len())
	}
	cut(KindDelta, a)
	cut(KindFull, &fakeState{tag: 3, value: 1})

	ra := &counterState{tag: 3}
	restored := OpenChainIn(store, "s", 4)
	if ok, err := restored.Restore(ra); err != nil || !ok {
		t.Fatalf("restore = (%v, %v)", ok, err)
	}
	if ra.value != 1 {
		t.Errorf("restored %d, want 1", ra.value)
	}
	if restored.Replayed() != (Replay{}) {
		t.Errorf("a chain of no deltas replayed %+v", restored.Replayed())
	}
}
