package mpc

import "fmt"

// Sized is implemented by any value whose size in machine words is known.
// All message payloads and all machine-store values must be Sized so the
// simulator can enforce communication caps and meter memory.
type Sized interface {
	Words() int
}

// U64s is a word slice payload; its size is its length.
type U64s []uint64

// Words implements Sized.
func (u U64s) Words() int { return len(u) }

// Ints is an int slice payload; its size is its length.
type Ints []int

// Words implements Sized.
func (i Ints) Words() int { return len(i) }

// Message is a point-to-point message delivered at the start of the next
// round.
type Message struct {
	From, To int
	Payload  Sized
}

// Config parameterizes a Cluster.
type Config struct {
	// Machines is the number of machines; must be positive.
	Machines int
	// LocalMemory is the per-machine memory and per-round communication
	// budget s, in words; must be positive.
	LocalMemory int
	// Strict makes cap violations panic immediately instead of being
	// recorded in Stats.Violations. Tests use Strict to fail fast.
	Strict bool
	// Parallelism selects the execution engine that fans the per-machine
	// work of every round out over OS threads: 0 or 1 runs machines
	// sequentially on the calling goroutine, k > 1 uses a worker pool of k
	// goroutines, and a negative value uses runtime.NumCPU() workers.
	//
	// Rounds, message ordering, Stats, and violation reporting are
	// bit-identical at every setting; parallelism changes wall-clock time
	// only. See StepFunc for the concurrency contract callbacks must obey.
	Parallelism int
}

// Stats aggregates the execution metrics the experiments report.
type Stats struct {
	// Rounds is the number of synchronous communication rounds executed.
	Rounds int
	// Messages is the total number of messages routed.
	Messages int64
	// WordsSent is the total number of payload words moved.
	WordsSent int64
	// MaxRecvWords is the largest number of words received by a single
	// machine in a single round.
	MaxRecvWords int
	// MaxSendWords is the largest number of words sent by a single machine
	// in a single round.
	MaxSendWords int
	// PeakMachineWords is the largest local store of any machine at any
	// round boundary.
	PeakMachineWords int
	// PeakTotalWords is the largest total memory (sum over machines) at any
	// round boundary.
	PeakTotalWords int
	// Violations records cap violations when Strict is off.
	Violations []string
}

// Machine is one MPC machine. Its Store maps named slots to Sized state; the
// cluster sums the slots to meter memory. Algorithms typically keep one shard
// struct per machine under a well-known slot name.
type Machine struct {
	// ID is the machine index in [0, Machines).
	ID int
	// Store holds the machine's local state.
	Store map[string]Sized
}

// StateWords returns the machine's current local memory use in words.
func (m *Machine) StateWords() int {
	total := 0
	for _, v := range m.Store {
		total += v.Words()
	}
	return total
}

// Get returns the store slot named key, or nil if absent.
func (m *Machine) Get(key string) Sized { return m.Store[key] }

// Set assigns the store slot named key.
func (m *Machine) Set(key string, v Sized) { m.Store[key] = v }

// Delete removes the store slot named key.
func (m *Machine) Delete(key string) { delete(m.Store, key) }

// Cluster is a simulated MPC system.
//
// The per-round working buffers (outboxes, the spare inbox set, word
// counters, the routing-prep slots, the merge-shard buckets) and the
// executor dispatch closures are allocated once here and reused every
// round, so a steady-state Step performs no allocation of its own: whatever
// a round allocates comes from the algorithm's callback.
type Cluster struct {
	cfg      Config
	exec     Executor
	machines []*Machine
	inboxes  [][]Message
	stats    Stats

	// Reused round scratch. spare is the second half of the inbox double
	// buffer: every Step fills it, swaps it with inboxes, and truncates the
	// retired set for the next round.
	outs       [][]Message
	spare      [][]Message
	stateWords []int
	recvWords  []int

	// Routing prep, written by the parallel phase of Step (each slot i is
	// written only by the invocation for machine i, so the slots are
	// race-free under any executor). The encode work that the merge used to
	// do serially per message — destination validation, payload sizing, and
	// destination-shard classification — happens here, overlapped with the
	// round's compute.
	sendWords []int   // valid payload words sent by machine i
	msgCount  []int   // valid messages emitted by machine i
	msgWords  [][]int // per-message payload words, parallel to outs[i] (0 for invalid)
	invalid   [][]int // invalid destinations of machine i, in outbox order

	// Destination-sharded merge: the destination range [0, M) is split into
	// mergeShards contiguous ranges of mergePer machines each; routed[i][s]
	// holds the indices (into outs[i]) of machine i's messages destined for
	// shard s, bucketed during the parallel phase. routed is nil under the
	// sequential executor, where the single merge shard scans outboxes
	// directly.
	mergeShards int
	mergePer    int
	routed      [][][]int32

	// stepFn/localFn/landFn hold the current call's callback for the
	// preallocated dispatch closures below (building a fresh closure per
	// round would allocate).
	stepFn   StepFunc
	localFn  func(m *Machine)
	landFn   func(m *Machine, inbox []Message)
	runStep  func(i int)
	runLocal func(i int)
	runLand  func(i int)
	runMeter func(i int)
	runMerge func(s int)

	// bc and agg are the reusable scratch of Broadcast and AggregateBatches,
	// runBcast and runAgg their once-built per-round callbacks, landBcast
	// and landAgg the once-built callbacks that land their last delivery;
	// told holds the callback of the Ask or Tell in progress for the
	// once-built runAnswer / runTold (see aggregate.go).
	bc        bcastState
	runBcast  StepFunc
	landBcast func(m *Machine, inbox []Message)
	agg       aggState
	runAgg    StepFunc
	landAgg   func(m *Machine, inbox []Message)
	told      toldState
	runAnswer func(m *Machine) *MessageBatch
	runTold   func(m *Machine)
}

// NewCluster returns a cluster with the given configuration.
func NewCluster(cfg Config) *Cluster {
	if cfg.Machines <= 0 {
		panic(fmt.Sprintf("mpc: %d machines", cfg.Machines))
	}
	if cfg.LocalMemory <= 0 {
		panic(fmt.Sprintf("mpc: local memory %d", cfg.LocalMemory))
	}
	c := &Cluster{
		cfg:        cfg,
		exec:       NewExecutor(cfg.Parallelism),
		machines:   make([]*Machine, cfg.Machines),
		inboxes:    make([][]Message, cfg.Machines),
		outs:       make([][]Message, cfg.Machines),
		spare:      make([][]Message, cfg.Machines),
		stateWords: make([]int, cfg.Machines),
		recvWords:  make([]int, cfg.Machines),
		sendWords:  make([]int, cfg.Machines),
		msgCount:   make([]int, cfg.Machines),
		msgWords:   make([][]int, cfg.Machines),
		invalid:    make([][]int, cfg.Machines),
	}
	for i := range c.machines {
		c.machines[i] = &Machine{ID: i, Store: make(map[string]Sized)}
	}
	// The merge phase is destination-sharded under a parallel executor: a
	// couple of shards per worker gives the work-stealing scheduler room to
	// balance destination skew, while a single shard under the sequential
	// executor degenerates to the serial scan (no bucketing overhead).
	c.mergeShards = 1
	if w := c.exec.Parallelism(); w > 1 {
		c.mergeShards = 2 * w
		if c.mergeShards > cfg.Machines {
			c.mergeShards = cfg.Machines
		}
		c.routed = make([][][]int32, cfg.Machines)
		for i := range c.routed {
			c.routed[i] = make([][]int32, c.mergeShards)
		}
	}
	c.mergePer = (cfg.Machines + c.mergeShards - 1) / c.mergeShards
	c.runStep = func(i int) {
		out := c.stepFn(c.machines[i], c.inboxes[i])
		c.outs[i] = out
		c.stateWords[i] = c.machines[i].StateWords()
		c.prepRoute(i, out)
	}
	c.runLocal = func(i int) {
		c.localFn(c.machines[i])
		c.stateWords[i] = c.machines[i].StateWords()
	}
	c.runLand = func(i int) {
		c.landFn(c.machines[i], c.inboxes[i])
		clear(c.inboxes[i])
		c.inboxes[i] = c.inboxes[i][:0]
		c.stateWords[i] = c.machines[i].StateWords()
	}
	c.runMeter = func(i int) {
		c.stateWords[i] = c.machines[i].StateWords()
	}
	c.runMerge = c.mergeShard
	c.agg.acc = make([]*MessageBatch, cfg.Machines)
	c.agg.outs = make([][]Message, cfg.Machines)
	for i := range c.agg.outs {
		c.agg.outs[i] = make([]Message, 0, 1)
	}
	c.runAgg = c.aggStep
	c.landAgg = c.aggLand
	c.bc.outs = make([][]Message, cfg.Machines)
	c.runBcast = c.bcastStep
	c.landBcast = c.bcastLand
	c.runAnswer = c.answerTold
	c.runTold = c.applyTold
	return c
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Machines returns the number of machines.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// LocalMemory returns the per-machine memory budget s in words.
func (c *Cluster) LocalMemory() int { return c.cfg.LocalMemory }

// Parallelism returns the number of worker goroutines of the cluster's
// execution engine (1 for the sequential executor).
func (c *Cluster) Parallelism() int { return c.exec.Parallelism() }

// Machine returns machine i. It is exported for tests and for loading input
// shards before an execution begins; algorithms must not use it to bypass
// message passing mid-run.
func (c *Cluster) Machine(i int) *Machine { return c.machines[i] }

// Stats returns a copy of the execution metrics so far.
func (c *Cluster) Stats() Stats { return c.stats }

// ResetStats zeroes the metrics (keeping machine state), so callers can meter
// a phase in isolation.
func (c *Cluster) ResetStats() { c.stats = Stats{} }

// RestoreStats overwrites the metrics wholesale, as part of restoring a
// checkpoint: together with reloaded machine stores this makes a resumed
// execution's Stats bit-identical to an uninterrupted one. The violations
// slice is copied so the caller's snapshot buffers are not aliased.
func (c *Cluster) RestoreStats(st Stats) {
	st.Violations = append([]string(nil), st.Violations...)
	c.stats = st
}

// violate records or raises a cap violation.
func (c *Cluster) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if c.cfg.Strict {
		panic("mpc: " + msg)
	}
	c.stats.Violations = append(c.stats.Violations, msg)
}

// StepFunc is the per-machine computation of one round. It receives the
// machine and the messages delivered this round and returns the messages to
// send; returned messages are delivered at the start of the next round.
//
// Buffer lifetimes: the inbox slice is valid only for the duration of the
// callback (its backing array is recycled two rounds later), so callbacks
// must not retain it — payload values may be retained as usual. The
// returned slice is copied out during the round's merge phase, so callers
// may reuse a per-machine outbox buffer across rounds.
//
// Concurrency contract: the cluster may invoke the callback for different
// machines concurrently (Config.Parallelism), so the callback must touch
// only the state of the machine it was invoked for — its Store, its inbox,
// and (for coordinator-side collectives) slots of caller-owned slices or
// maps indexed by that machine's id or rank. Values received in messages or
// installed by Broadcast are shared, not copied, and must be treated as
// read-only. The same contract applies to LocalAt/LocalAll callbacks and to
// the callbacks of every collective built on Step.
type StepFunc func(m *Machine, inbox []Message) []Message

// prepRoute is the encode half of the routing pipeline, run inside the
// parallel phase by the invocation for machine i (overlapped with the other
// machines' compute): it validates destinations, sizes every payload once,
// and — under a parallel merge — buckets the outbox by destination shard.
// All writes go to slot i of caller-owned slices, honoring the executor
// contract.
func (c *Cluster) prepRoute(i int, out []Message) {
	M := c.cfg.Machines
	words := c.msgWords[i][:0]
	inv := c.invalid[i][:0]
	var buckets [][]int32
	if c.routed != nil {
		buckets = c.routed[i]
		for s := range buckets {
			buckets[s] = buckets[s][:0]
		}
	}
	sw, cnt := 0, 0
	for k := range out {
		to := out[k].To
		if to < 0 || to >= M {
			inv = append(inv, to)
			words = append(words, 0)
			continue
		}
		w := 0
		if p := out[k].Payload; p != nil {
			w = p.Words()
		}
		words = append(words, w)
		sw += w
		cnt++
		if buckets != nil {
			s := to / c.mergePer
			buckets[s] = append(buckets[s], int32(k))
		}
	}
	c.msgWords[i] = words
	c.invalid[i] = inv
	c.sendWords[i] = sw
	c.msgCount[i] = cnt
}

// mergeShard routes every message destined for shard s's contiguous
// destination range into the spare inbox set and accumulates the per-
// destination receive totals. Shards own disjoint destination ranges, so
// concurrent shard sweeps never write the same inbox or counter; within one
// destination, messages land in ascending sender id and, per sender, in
// outbox order — the same order the serial merge produces, which is what
// keeps inbox contents bit-identical at every parallelism level.
func (c *Cluster) mergeShard(s int) {
	lo := s * c.mergePer
	hi := lo + c.mergePer
	if hi > c.cfg.Machines {
		hi = c.cfg.Machines
	}
	next := c.spare
	// Truncate this shard's buffers here rather than trusting the previous
	// round's cleanup: if a Strict-mode violation panicked mid-round and
	// the caller recovered, the spare set still holds that round's merge,
	// which must not leak into this one.
	for dst := lo; dst < hi; dst++ {
		clear(next[dst])
		next[dst] = next[dst][:0]
		c.recvWords[dst] = 0
	}
	if c.routed == nil {
		// Single-shard serial merge: scan the outboxes directly, skipping
		// invalid destinations (prepRoute already recorded them).
		for i, out := range c.outs {
			words := c.msgWords[i]
			for k := range out {
				to := out[k].To
				if to < lo || to >= hi {
					continue
				}
				msg := out[k]
				msg.From = i
				next[to] = append(next[to], msg)
				c.recvWords[to] += words[k]
			}
		}
		return
	}
	for i, out := range c.outs {
		words := c.msgWords[i]
		for _, k := range c.routed[i][s] {
			msg := out[k]
			msg.From = i
			next[msg.To] = append(next[msg.To], msg)
			c.recvWords[msg.To] += words[k]
		}
	}
}

// Step executes one synchronous round on all machines.
//
// The round is a three-phase pipeline. The compute/encode phase fans fn out
// across machines through the executor; each invocation writes its outgoing
// messages and post-round store size into per-machine slots and then
// immediately prepares its own outbox for routing (prepRoute: destination
// validation, payload sizing, destination-shard bucketing), so the encode
// work overlaps the other machines' compute instead of serializing at the
// barrier. The route phase sweeps the prepared outboxes into the inbox
// double buffer by contiguous destination shard — also through the
// executor, since shards own disjoint destinations. The meter phase then
// folds the per-machine totals into Stats in ascending machine id on the
// calling goroutine: cap enforcement, violation recording, and memory
// sampling, batched per machine rather than per message.
//
// Because inbox order within every destination is ascending sender id (and
// outbox order per sender) no matter how either parallel phase was
// scheduled, and the meter fold always runs in machine order, inbox
// ordering, Stats, and violation reporting are bit-identical at every
// parallelism level. A Strict-mode cap violation panics during the meter
// fold, after routing: the round's deliveries are complete but unswapped,
// and the next Step's route phase truncates them, so a recovered panic
// cannot leak a partial round into the next one.
func (c *Cluster) Step(fn StepFunc) {
	c.stepFn = fn
	c.exec.Run(c.cfg.Machines, c.runStep)
	c.stepFn = nil
	c.exec.Run(c.mergeShards, c.runMerge)
	// Meter fold: batched cap enforcement in machine order. Sender-side
	// first (invalid destinations in outbox order, then the send cap, per
	// sender), then receiver-side — the exact order of the old per-message
	// serial merge, so violation strings line up bit-identically.
	for i := range c.outs {
		for _, to := range c.invalid[i] {
			c.violate("machine %d sent to invalid machine %d", i, to)
		}
		sw := c.sendWords[i]
		c.stats.Messages += int64(c.msgCount[i])
		c.stats.WordsSent += int64(sw)
		c.outs[i] = nil
		if sw > c.cfg.LocalMemory {
			c.violate("machine %d sent %d words in one round (cap %d)", i, sw, c.cfg.LocalMemory)
		}
		if sw > c.stats.MaxSendWords {
			c.stats.MaxSendWords = sw
		}
	}
	for i, w := range c.recvWords {
		if w > c.cfg.LocalMemory {
			c.violate("machine %d received %d words in one round (cap %d)", i, w, c.cfg.LocalMemory)
		}
		if w > c.stats.MaxRecvWords {
			c.stats.MaxRecvWords = w
		}
	}
	retired := c.inboxes
	c.inboxes = c.spare
	// Drop payload references from the retired inboxes eagerly (they are
	// truncated again, defensively, at the next route phase) and keep their
	// backing arrays as the next round's merge buffers.
	for i := range retired {
		clear(retired[i])
		retired[i] = retired[i][:0]
	}
	c.spare = retired
	c.stats.Rounds++
	c.reduceMemory(c.stateWords)
}

// meterMemory samples per-machine and total memory at the round boundary:
// the store walks run through the executor, the reduction into Stats runs in
// machine order on the calling goroutine.
func (c *Cluster) meterMemory() {
	c.exec.Run(c.cfg.Machines, c.runMeter)
	c.reduceMemory(c.stateWords)
}

// reduceMemory folds pre-computed per-machine store sizes into the memory
// peaks and cap violations, in machine order.
func (c *Cluster) reduceMemory(stateWords []int) {
	total := 0
	for i, w := range stateWords {
		total += w
		if w > c.stats.PeakMachineWords {
			c.stats.PeakMachineWords = w
		}
		if w > c.cfg.LocalMemory {
			c.violate("machine %d stores %d words (cap %d)", i, w, c.cfg.LocalMemory)
		}
	}
	if total > c.stats.PeakTotalWords {
		c.stats.PeakTotalWords = total
	}
}

// LocalAt runs fn on machine id without advancing the round: it models local
// computation between communication rounds, which is free in the MPC model.
// Memory is re-metered afterwards so state growth is still observed.
func (c *Cluster) LocalAt(id int, fn func(m *Machine)) {
	fn(c.machines[id])
	c.meterMemory()
}

// LocalAll runs fn on every machine without advancing the round. The
// callbacks run through the executor and must obey the StepFunc concurrency
// contract.
func (c *Cluster) LocalAll(fn func(m *Machine)) {
	c.localFn = fn
	c.exec.Run(c.cfg.Machines, c.runLocal)
	c.localFn = nil
	c.reduceMemory(c.stateWords)
}

// Land hands every machine the messages the last Step delivered to it and
// empties the inboxes, without advancing the round: reading the inbox is the
// local computation that opens the next round, not a round of its own, so a
// collective lands its last delivery here instead of stepping for it. fn runs
// on every machine, those with an empty inbox included, through the executor
// and under the StepFunc contract (the inbox must not be retained). Memory is
// re-metered afterwards, so what the landing stores is observed — peaks, cap
// violations, Strict panics — exactly as at a round boundary. The next Step
// sees none of the landed messages.
func (c *Cluster) Land(fn func(m *Machine, inbox []Message)) {
	c.landFn = fn
	c.exec.Run(c.cfg.Machines, c.runLand)
	c.landFn = nil
	c.reduceMemory(c.stateWords)
}

// fanout returns the broadcast/aggregation tree fanout for payloads of w
// words: the number of children one machine can serve within its
// communication budget, at least 2.
func (c *Cluster) fanout(w int) int {
	if w <= 0 {
		w = 1
	}
	f := c.cfg.LocalMemory / w
	if f < 2 {
		f = 2
	}
	return f
}

// treeDepth returns ceil(log_f(m)) with a minimum of 1.
func treeDepth(m, f int) int {
	if m <= 1 {
		return 1
	}
	depth := 0
	reach := 1
	for reach < m {
		reach *= f
		depth++
	}
	return depth
}

// bcastState is the reusable scratch of Broadcast, owned by the cluster:
// one outbox per machine plus the parameters of the call in progress for the
// once-built dispatch callback (Cluster.runBcast).
type bcastState struct {
	outs     [][]Message
	from     int
	slot     string
	payload  Sized
	frontier int // ranks [0, frontier) hold the payload
	fanout   int
}

// bcastStep is the per-round callback of Broadcast: store what arrived, and
// if this machine's rank is inside the frontier, serve its fanout-1 children.
// Machines are ranked so that the source is rank 0 of a contiguous tree.
func (c *Cluster) bcastStep(m *Machine, inbox []Message) []Message {
	bc := &c.bc
	c.bcastLand(m, inbox)
	M := c.cfg.Machines
	r := (m.ID - bc.from + M) % M
	if r >= bc.frontier {
		return nil
	}
	out := bc.outs[m.ID][:0]
	for ch := 1; ch < bc.fanout; ch++ {
		cr := r + ch*bc.frontier
		if cr >= M {
			break
		}
		out = append(out, Message{To: (cr + bc.from) % M, Payload: bc.payload})
	}
	bc.outs[m.ID] = out
	return out
}

// bcastLand stores the payload a machine was just delivered.
func (c *Cluster) bcastLand(m *Machine, inbox []Message) {
	for _, msg := range inbox {
		m.Set(c.bc.slot, msg.Payload)
	}
}

// Broadcast delivers payload from machine `from` to every machine via a
// fanout tree, storing it on arrival under store slot `slot`. It costs the
// tree depth, ceil(log_f M) rounds where f = s / payload words (1 on a
// single machine); the last round's deliveries are landed, not stepped for.
// The payload value is shared (not copied); receivers must treat it as
// read-only. A steady-state Broadcast allocates nothing.
func (c *Cluster) Broadcast(from int, slot string, payload Sized) {
	bc := &c.bc
	bc.from, bc.slot, bc.payload = from, slot, payload
	bc.fanout = c.fanout(payload.Words())
	c.machines[from].Set(slot, payload)
	bc.frontier = 1
	for d := treeDepth(c.cfg.Machines, bc.fanout); d > 0; d-- {
		c.Step(c.runBcast)
		bc.frontier *= bc.fanout
	}
	// Land the deliveries of the last round: it always makes some unless the
	// machine is alone (the depth is minimal, so the frontier was short of M),
	// and then re-metering an unchanged store would only repeat its
	// violations.
	if c.cfg.Machines > 1 {
		c.Land(c.landBcast)
	}
	bc.payload = nil
}

// Scatter delivers messages produced at a single machine in one round: the
// coordinator addresses each machine directly with a small keyed payload.
// Costs one round.
func (c *Cluster) Scatter(from int, produce func(m *Machine) []Message, receive func(m *Machine, msg Message)) {
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID != from {
			return nil
		}
		return produce(m)
	})
	c.Land(func(m *Machine, inbox []Message) {
		for _, msg := range inbox {
			receive(m, msg)
		}
	})
}

// Partition maps n items (vertices) onto machines in contiguous equal ranges,
// the "vertex-based partitioning" of Section 5.
type Partition struct {
	// N is the number of items.
	N int
	// Machines is the number of machines.
	Machines int
}

// Owner returns the machine owning item v.
func (p Partition) Owner(v int) int {
	if v < 0 || v >= p.N {
		panic(fmt.Sprintf("mpc: item %d out of range [0,%d)", v, p.N))
	}
	per := (p.N + p.Machines - 1) / p.Machines
	o := v / per
	if o >= p.Machines {
		o = p.Machines - 1
	}
	return o
}

// Range returns the half-open item range [lo, hi) owned by machine id.
func (p Partition) Range(id int) (lo, hi int) {
	per := (p.N + p.Machines - 1) / p.Machines
	lo = id * per
	hi = lo + per
	if hi > p.N {
		hi = p.N
	}
	if lo > p.N {
		lo = p.N
	}
	return lo, hi
}
