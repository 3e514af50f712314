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
// payload as state afterwards. AggregateBatches stays exported for an
// aggregation with nothing to ask; the broadcast beneath Ask and Tell does
// not, since everything sent down is a question or a message.
//
// The tree walks reuse cluster-owned state (the per-rank accumulator slots,
// the per-machine outboxes, and dispatch callbacks built once at
// NewCluster), so a steady-state Ask or Tell allocates nothing of its own.
// The batches the callbacks answer with come from the cluster's free list
// (Machine.Batch), each merge's output too (MergeSortedBatches, sized for
// both operands), and every batch a merge consumes goes back to it, so at
// steady state the batches allocate nothing either, and the list holds per
// capacity class about what one round used at once.

// BatchCombine merges two batches into one, returning the result. It runs at
// internal nodes of the aggregation tree and must be associative up to the
// key order of the frames; implementations normally take the output batch
// from the operands' free list and release both inputs (see
// MergeSortedBatches).
type BatchCombine func(a, b *MessageBatch) *MessageBatch

// aggState is the reusable scratch of AggregateBatches, owned by the
// cluster: acc holds one accumulator batch per machine rank, outs holds one
// single-message outbox per machine, and the remaining fields parameterize
// the dispatch closures for the current call.
type aggState struct {
	acc     []*MessageBatch
	outs    [][]Message
	to      int
	group   int // ranks that are multiples of group still hold an accumulator
	fanout  int
	collect func(m *Machine) *MessageBatch
	combine BatchCombine
}

// aggCollect is the executor job of AggregateBatches' contribution phase:
// machine i's collect fills its rank's accumulator slot and nothing else (one
// closure for every call; see Cluster.runCollect).
func (c *Cluster) aggCollect(i int) {
	M := c.cfg.Machines
	b := c.agg.collect(c.machines[i])
	if b != nil && b.Words() == 0 {
		b.Release()
		b = nil
	}
	c.agg.acc[(i-c.agg.to+M)%M] = b
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
// runs on every machine through the executor, under the StepFunc
// concurrency contract, and may return nil for "no contribution"; combine
// merges two batches at internal tree nodes and at the destination, always
// with the lower-ranked accumulator as its left operand. The fanout is sized
// for the largest contribution, costing the tree depth, ceil(log_f M) rounds
// — O(1/φ); the root lands the last round's batches instead of stepping for
// them.
//
// Ownership: contributed batches are consumed (combined batches are
// typically released by combine); the returned batch belongs to the caller,
// which should Release it after decoding.
func (c *Cluster) AggregateBatches(to int, collect func(m *Machine) *MessageBatch, combine BatchCombine) *MessageBatch {
	M := c.cfg.Machines
	c.agg.to = to
	c.agg.collect = collect
	c.exec.Run(M, c.runCollect)
	c.agg.collect = nil
	maxW := 1
	for i := range c.machines {
		if b := c.agg.acc[(i-to+M)%M]; b != nil && b.Words() > maxW {
			maxW = b.Words()
		}
	}
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

// toldState holds the callbacks of the Ask or Tell in progress, for the
// once-built Cluster.runAnswer / Cluster.runTold.
type toldState struct {
	answer  func(m *Machine, question Sized) *MessageBatch
	apply   func(m *Machine, msg Sized)
	receive func(m *Machine, part Sized)
}

// takeTold removes the broadcast payload from m's store and returns it.
func takeTold(m *Machine) Sized {
	p := m.Store[slotTold]
	delete(m.Store, slotTold)
	return p
}

func (c *Cluster) answerTold(m *Machine) *MessageBatch { return c.told.answer(m, takeTold(m)) }

// applyTold runs the Tell's apply on m, then hands m its parts, if any, and
// empties its part list.
func (c *Cluster) applyTold(m *Machine) {
	c.told.apply(m, takeTold(m))
	pl, ok := m.Store[slotParts].(*partList)
	if !ok {
		return
	}
	delete(m.Store, slotParts)
	for _, p := range pl.parts {
		c.told.receive(m, p)
	}
	clear(pl.parts)
	pl.parts, pl.words = pl.parts[:0], 0
}

// Ask broadcasts question from machine `from`, collects one answer batch
// per machine and returns their tree-combined merge at `from` (nil when no
// machine answered). answer runs on every machine, `from` included, through
// the executor under the StepFunc concurrency contract, is handed the
// question (shared: read-only) and returns frames sorted ascending by their
// first word, or nil for "nothing to say"; combine merges two answers
// exactly as in AggregateBatches, which also states the ownership of the
// batches. Rounds: the broadcast's depth down plus the aggregation's depth up
// (2 when both trees have depth 1).
//
// Ask must not be called from inside an answer or apply callback.
func (c *Cluster) Ask(from int, question Sized, answer func(m *Machine, question Sized) *MessageBatch, combine BatchCombine) *MessageBatch {
	c.broadcast(from, question)
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
	c.TellParts(from, msg, nil, apply, nil)
}

// TellParts is Tell with addressed parts: messages from `from`, each to one
// machine, sent in the broadcast's first round beside its copies of msg,
// where a Scatter would pay a round of its own. The parts' words are taken
// off the sender's s before the broadcast's fanout is sized, so they deepen
// the tree rather than break the send cap, unless even fanout 2 does not fit
// beside them (then the cap violation is recorded and the round delivers
// all the same). They are counted in that round's messages and words, and
// held in their addressee's store, metered, from the round they arrive
// until they are consumed: on every machine, after apply has run, receive is
// handed its parts, in the order given, and they leave the store. So apply
// never sees a part. Rounds: the broadcast's depth, 1 at depth 1.
func (c *Cluster) TellParts(from int, msg Sized, parts []Message, apply func(m *Machine, msg Sized), receive func(m *Machine, part Sized)) {
	c.bc.parts = parts
	c.broadcast(from, msg)
	c.told.apply, c.told.receive = apply, receive
	c.LocalAll(c.runTold)
	c.told.apply, c.told.receive = nil, nil
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
// ascending by their first word (the key) into a fresh batch from the
// operands' free list, sized for both: distinct keys are copied through,
// equal keys are handed to combine, which merges the src frame into the dst
// frame already copied into the output. Both inputs are released; neither
// operand is mutated in place, so no two batches share a buffer. Pass a nil
// combine to keep the dst frame on key collisions.
func MergeSortedBatches(a, b *MessageBatch, combine func(dst, src []uint64)) *MessageBatch {
	l := a.list
	if l == nil {
		l = b.list
	}
	out := l.get(len(a.buf) + len(b.buf))
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
