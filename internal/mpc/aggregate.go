package mpc

// Ask and Tell: the two ways a coordinator talks to the shards.
//
// Ask broadcasts a question, lets every machine answer with one MessageBatch
// of key-sorted [key, ...] frames, and merge-joins the answers up the
// aggregation tree — the packed-aggregation discipline of the constant-round
// congested-clique MST line (Jurdziński–Nowicki; Nowicki): one buffer per
// tree edge per round, no per-key heap objects. Tell broadcasts a message and
// runs a callback on every machine between rounds.
//
// Drop on consume: the payload sits in every machine's store — metered like
// any other state — from the round it arrives until the machine's callback
// is handed it; the cluster removes it from the store at that moment, under
// a slot name no algorithm sees, so no site can forget to and none holds the
// payload as state afterwards. Broadcast and AggregateBatches are the
// building blocks and stay exported for collectives that need only one half
// (an aggregation with nothing to ask, a broadcast consumed by a Step).
//
// The tree walks reuse cluster-owned state (the per-rank accumulator slots,
// the per-machine outboxes, and dispatch callbacks built once at
// NewCluster), so a steady-state Ask or Tell allocates nothing of its own
// beyond the pooled batch buffers the callbacks acquire.

// BatchCombine merges two batches into one, returning the result. It runs at
// internal nodes of the aggregation tree and must be associative up to the
// key order of the frames; implementations normally acquire a pooled output
// batch and release both inputs (see MergeSortedBatches).
type BatchCombine func(a, b *MessageBatch) *MessageBatch

// aggState is the reusable scratch of AggregateBatches, owned by the
// cluster: acc holds one accumulator batch per machine rank, outs holds one
// single-message outbox per machine, and the remaining fields parameterize
// the dispatch closure for the current call.
type aggState struct {
	acc     []*MessageBatch
	outs    [][]Message
	to      int
	group   int // ranks that are multiples of group still hold an accumulator
	fanout  int
	combine BatchCombine
}

// absorb merges every delivered batch into the rank's accumulator, in inbox
// order (ascending sender id, deterministic at every parallelism).
func (c *Cluster) aggAbsorb(r int, inbox []Message) {
	for _, msg := range inbox {
		b := msg.Payload.(*MessageBatch)
		if c.agg.acc[r] == nil {
			c.agg.acc[r] = b
		} else {
			c.agg.acc[r] = c.agg.combine(c.agg.acc[r], b)
		}
	}
}

// aggLand lands the last round of AggregateBatches: the root absorbs the
// batches still in flight (see Cluster.landAgg).
func (c *Cluster) aggLand(m *Machine, inbox []Message) {
	M := c.cfg.Machines
	c.aggAbsorb((m.ID-c.agg.to+M)%M, inbox)
}

// aggStep is the per-round callback of AggregateBatches (one closure for
// every round of every call; see Cluster.runAgg).
func (c *Cluster) aggStep(m *Machine, inbox []Message) []Message {
	M := c.cfg.Machines
	r := (m.ID - c.agg.to + M) % M
	c.aggAbsorb(r, inbox)
	gs := c.agg.group
	if r%gs != 0 || r%(gs*c.agg.fanout) == 0 || c.agg.acc[r] == nil {
		return nil
	}
	parent := (r - r%(gs*c.agg.fanout) + c.agg.to) % M
	p := c.agg.acc[r]
	c.agg.acc[r] = nil
	out := append(c.agg.outs[m.ID][:0], Message{To: parent, Payload: p})
	c.agg.outs[m.ID] = out
	return out
}

// AggregateBatches tree-combines one MessageBatch per machine onto machine
// `to` and returns the result (nil when no machine contributed). collect
// runs on every machine in ascending id on the calling goroutine and may
// return nil for "no contribution"; combine merges two batches at internal
// tree nodes and at the destination, always with the lower-ranked
// accumulator as its left operand. The fanout is sized for the largest
// contribution, costing the tree depth, ceil(log_f M) rounds — O(1/φ); the
// root lands the last round's batches instead of stepping for them.
//
// Ownership: contributed batches are consumed (combined batches are
// typically released by combine); the returned batch belongs to the caller,
// which should Release it after decoding.
func (c *Cluster) AggregateBatches(to int, collect func(m *Machine) *MessageBatch, combine BatchCombine) *MessageBatch {
	M := c.cfg.Machines
	maxW := 1
	for _, m := range c.machines {
		b := collect(m)
		if b != nil && b.Words() == 0 {
			b.Release()
			b = nil
		}
		c.agg.acc[(m.ID-to+M)%M] = b
		if b != nil && b.Words() > maxW {
			maxW = b.Words()
		}
	}
	c.agg.to = to
	c.agg.fanout = c.fanout(maxW)
	c.agg.combine = combine
	depth := treeDepth(M, c.agg.fanout)
	c.agg.group = 1
	for d := 0; d < depth; d++ {
		c.Step(c.runAgg)
		c.agg.group *= c.agg.fanout
	}
	c.Land(c.landAgg)
	c.agg.combine = nil
	res := c.agg.acc[0]
	c.agg.acc[0] = nil
	return res
}

// slotTold is the store slot a question or message occupies between its
// broadcast and the callback that consumes it.
const slotTold = "mpc.told"

// toldState holds the callback of the Ask or Tell in progress, for the
// once-built Cluster.runAnswer / Cluster.runTold.
type toldState struct {
	answer func(m *Machine, question Sized) *MessageBatch
	apply  func(m *Machine, msg Sized)
}

// takeTold removes the broadcast payload from m's store and returns it.
func takeTold(m *Machine) Sized {
	p := m.Store[slotTold]
	delete(m.Store, slotTold)
	return p
}

func (c *Cluster) answerTold(m *Machine) *MessageBatch { return c.told.answer(m, takeTold(m)) }

func (c *Cluster) applyTold(m *Machine) { c.told.apply(m, takeTold(m)) }

// Ask broadcasts question from machine `from`, collects one answer batch
// per machine and returns their tree-combined merge at `from` (nil when no
// machine answered). answer runs on every machine, `from` included, in
// ascending id on the calling goroutine, is handed the question (shared:
// read-only) and returns frames sorted ascending by their first word, or nil
// for "nothing to say"; combine merges two answers exactly as in
// AggregateBatches, which also states the ownership of the batches. Rounds:
// the broadcast's depth down plus the aggregation's depth up (2 when both
// trees have depth 1).
//
// Ask must not be called from inside an answer or apply callback.
func (c *Cluster) Ask(from int, question Sized, answer func(m *Machine, question Sized) *MessageBatch, combine BatchCombine) *MessageBatch {
	c.Broadcast(from, slotTold, question)
	c.told.answer = answer
	res := c.AggregateBatches(from, c.runAnswer, combine)
	c.told.answer = nil
	return res
}

// Tell broadcasts msg from machine `from` and then runs apply on every
// machine, `from` included, without advancing the round (LocalAll: through
// the executor, under the StepFunc concurrency contract). apply is handed
// the message, which is shared and read-only. Rounds: the broadcast's depth.
func (c *Cluster) Tell(from int, msg Sized, apply func(m *Machine, msg Sized)) {
	c.Broadcast(from, slotTold, msg)
	c.told.apply = apply
	c.LocalAll(c.runTold)
	c.told.apply = nil
}

// KeepFirst is the BatchCombine for answers whose keys each have one owner:
// a merge-join in which colliding frames (there should be none) keep the
// first-arriving one.
func KeepFirst(a, b *MessageBatch) *MessageBatch { return MergeSortedBatches(a, b, nil) }

// SumValues is the BatchCombine for [key, value] frames that adds the value
// words of colliding keys.
func SumValues(a, b *MessageBatch) *MessageBatch {
	return MergeSortedBatches(a, b, func(dst, src []uint64) { dst[1] += src[1] })
}

// MergeSortedBatches merge-joins two batches whose frames are sorted
// ascending by their first word (the key) into a fresh pooled batch:
// distinct keys are copied through, equal keys are handed to combine, which
// merges the src frame into the dst frame already copied into the output.
// Both inputs are released; neither operand is mutated in place, so pooled
// buffers cannot alias. Pass a nil combine to keep the dst frame on key
// collisions.
func MergeSortedBatches(a, b *MessageBatch, combine func(dst, src []uint64)) *MessageBatch {
	out := AcquireMessageBatch()
	ca, cb := a.Cursor(), b.Cursor()
	fa, oka := ca.Next()
	fb, okb := cb.Next()
	for oka || okb {
		switch {
		case !okb || (oka && fa[0] < fb[0]):
			copy(out.Grow(len(fa)), fa)
			fa, oka = ca.Next()
		case !oka || fb[0] < fa[0]:
			copy(out.Grow(len(fb)), fb)
			fb, okb = cb.Next()
		default:
			f := out.Grow(len(fa))
			copy(f, fa)
			if combine != nil {
				combine(f, fb)
			}
			fa, oka = ca.Next()
			fb, okb = cb.Next()
		}
	}
	a.Release()
	b.Release()
	return out
}
