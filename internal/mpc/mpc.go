package mpc

import (
	"fmt"
	"slices"
)

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
	// Parallelism selects the execution engine that fans the per-machine
	// work of every round out over OS threads: 0 or 1 runs machines
	// sequentially on the calling goroutine, k > 1 uses a worker pool of k
	// goroutines, and a negative value uses runtime.NumCPU() workers.
	//
	// Rounds, message ordering and Stats, violations included, are
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
	// ViolationCount counts every cap violation and invalid destination. A
	// violation never stops the run.
	ViolationCount int
	// Violations describes the first keptViolations (16) of them, in the
	// order the rounds met them: a run that breaks a cap every round keeps a
	// count, not a list that grows with it.
	Violations []string
}

// PhaseStats is what the rounds charged to one named phase cost
// (Cluster.Phase): the rounds, and the messages and words they routed.
type PhaseStats struct {
	Name      string
	Rounds    int
	Messages  int64
	WordsSent int64
}

// Machine is one MPC machine. Its Store maps named slots to Sized state; the
// cluster sums the slots to meter memory. Algorithms typically keep one shard
// struct per machine under a well-known slot name.
type Machine struct {
	// ID is the machine index in [0, Machines).
	ID int
	// Store holds the machine's local state.
	Store map[string]Sized
	// buffers is the cluster's free list of message batches (Batch).
	buffers *freeList
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
// counters) and the executor dispatch closures are allocated once here and
// reused every round, so a steady-state Step performs no allocation of its
// own: whatever a round allocates comes from the algorithm's callback.
type Cluster struct {
	cfg      Config
	exec     *executor
	machines []*Machine
	inboxes  [][]Message
	stats    Stats
	// phases are the per-phase counters in the order phases were first
	// charged, phase the row of phaseName (-1 until its first round).
	phases    []PhaseStats
	phaseName string
	phase     int
	// buffers is the free list every message batch of the cluster's
	// callbacks comes from and goes back to (Machine.Batch).
	buffers *freeList

	// Reused round scratch. spare is the second half of the inbox double
	// buffer: every Step fills it, swaps it with inboxes, and truncates the
	// retired set for the next round.
	outs       [][]Message
	spare      [][]Message
	stateWords []int
	recvWords  []int

	// stepFn/localFn/landFn hold the current call's callback for the
	// preallocated dispatch closures below (building a fresh closure per
	// round would allocate).
	stepFn   StepFunc
	localFn  func(m *Machine)
	landFn   func(m *Machine, inbox []Message)
	runStep  func(i int)
	runLocal func(i int)
	runLand  func(i int)

	// bc and agg are the reusable scratch of Broadcast and AggregateBatches,
	// runBcast and runAgg their once-built per-round callbacks, runCollect
	// the once-built executor job of the aggregation's contributions,
	// landBcast and landAgg the once-built callbacks that land their last
	// delivery; told holds the callback of the Ask or Tell in progress for
	// the once-built runAnswer / runTold (see aggregate.go).
	bc         bcastState
	runBcast   StepFunc
	landBcast  func(m *Machine, inbox []Message)
	agg        aggState
	runAgg     StepFunc
	runCollect func(i int)
	landAgg    func(m *Machine, inbox []Message)
	told       toldState
	runAnswer  func(m *Machine) *MessageBatch
	runTold    func(m *Machine)
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
		exec:       newExecutor(cfg.Parallelism),
		machines:   make([]*Machine, cfg.Machines),
		inboxes:    make([][]Message, cfg.Machines),
		outs:       make([][]Message, cfg.Machines),
		spare:      make([][]Message, cfg.Machines),
		stateWords: make([]int, cfg.Machines),
		recvWords:  make([]int, cfg.Machines),
		buffers:    newFreeList(cfg.Machines),
		phase:      -1,
	}
	for i := range c.machines {
		c.machines[i] = &Machine{ID: i, Store: make(map[string]Sized), buffers: c.buffers}
	}
	c.runStep = func(i int) {
		c.outs[i] = c.stepFn(c.machines[i], c.inboxes[i])
		c.stateWords[i] = c.machines[i].StateWords()
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
	c.agg.acc = make([]*MessageBatch, cfg.Machines)
	c.agg.outs = make([][]Message, cfg.Machines)
	for i := range c.agg.outs {
		c.agg.outs[i] = make([]Message, 0, 1)
	}
	c.runAgg = c.aggStep
	c.runCollect = c.aggCollect
	c.landAgg = c.aggLand
	c.bc.outs = make([][]Message, cfg.Machines)
	c.bc.nparts = make([]int, cfg.Machines)
	c.bc.held = make([]partList, cfg.Machines)
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
// execution engine (1 when machines run on the calling goroutine).
func (c *Cluster) Parallelism() int { return c.exec.workers }

// Machine returns machine i. It is exported for tests and for loading input
// shards before an execution begins; algorithms must not use it to bypass
// message passing mid-run.
func (c *Cluster) Machine(i int) *Machine { return c.machines[i] }

// IdleBufferWords returns the capacity, in words, of the message batches the
// cluster's free list holds idle between uses: process memory the model does
// not meter, beside Stats.PeakTotalWords, which it does.
func (c *Cluster) IdleBufferWords() int { return c.buffers.idleWords() }

// Stats returns a copy of the execution metrics so far.
func (c *Cluster) Stats() Stats { return c.stats }

// RestoreStats overwrites the metrics wholesale, as part of restoring a
// checkpoint: together with reloaded machine stores this makes a resumed
// execution's Stats bit-identical to an uninterrupted one. The violations
// slice is copied so the caller's snapshot buffers are not aliased.
func (c *Cluster) RestoreStats(st Stats) {
	st.Violations = append([]string(nil), st.Violations...)
	c.stats = st
}

// Phase charges every round that follows, with the messages and words it
// routes, to the named phase, until the next call; rounds before the first
// call are charged to the phase "". The counts are kept beside Stats, not in
// it: they are never checkpointed and RestoreStats leaves them alone, so on a
// cluster built fresh they sum to Stats' Rounds, Messages and WordsSent.
// A phase's row is made at its first round, so a named phase that sends
// nothing has none, and once every phase has its row nothing allocates.
func (c *Cluster) Phase(name string) {
	if name != c.phaseName {
		c.phaseName, c.phase = name, -1
	}
}

// Phases returns the per-phase counts, in the order the phases were first
// charged.
func (c *Cluster) Phases() []PhaseStats { return append([]PhaseStats(nil), c.phases...) }

// charge adds one round of msgs messages and words words to the current
// phase.
func (c *Cluster) charge(msgs, words int64) {
	if c.phase < 0 {
		c.phase = slices.IndexFunc(c.phases, func(p PhaseStats) bool { return p.Name == c.phaseName })
		if c.phase < 0 {
			c.phases = append(c.phases, PhaseStats{Name: c.phaseName})
			c.phase = len(c.phases) - 1
		}
	}
	p := &c.phases[c.phase]
	p.Rounds++
	p.Messages += msgs
	p.WordsSent += words
}

// keptViolations bounds Stats.Violations.
const keptViolations = 16

// violate counts a cap violation, and describes it while fewer than
// keptViolations are described.
func (c *Cluster) violate(format string, args ...any) {
	c.stats.ViolationCount++
	if len(c.stats.Violations) < keptViolations {
		c.stats.Violations = append(c.stats.Violations, fmt.Sprintf(format, args...))
	}
}

// StepFunc is the per-machine computation of one round. It receives the
// machine and the messages delivered this round and returns the messages to
// send; returned messages are delivered at the start of the next round.
//
// Buffer lifetimes: the inbox slice is valid only for the duration of the
// callback (its backing array is recycled two rounds later), so callbacks
// must not retain it — payload values may be retained as usual. The
// returned slice is copied out by the round's exchange phase, before the
// next round's compute, so callers may reuse a per-machine outbox buffer
// across rounds.
//
// Concurrency contract: the cluster may invoke the callback for different
// machines concurrently (Config.Parallelism; the round's routing and
// metering stay on the calling goroutine), so the callback must touch only
// the state of the machine it was invoked for — its Store, its inbox, and
// (for coordinator-side collectives) slots of caller-owned slices or maps
// indexed by that machine's id or rank. Values received in messages or
// installed by Broadcast are shared, not copied, and must be treated as
// read-only. The same contract applies to LocalAt/LocalAll callbacks and to
// the callbacks of every collective built on Step.
type StepFunc func(m *Machine, inbox []Message) []Message

// Step executes one synchronous round on all machines.
//
// The round has two phases. The compute phase fans fn out across machines
// through the executor; each invocation writes only its machine's outgoing
// messages and post-round store size. The exchange phase then runs on the
// calling goroutine in machine order (route): it moves every message into
// its destination's inbox, sizes each payload once, and meters the round —
// per sender, invalid destinations in outbox order, message and word
// totals, the send cap; then per destination, the receive cap — before the
// fresh inboxes are swapped in and memory is sampled.
//
// Because the compute phase writes only per-machine slots and everything
// after it is one serial pass in machine order, inbox ordering (ascending
// sender id, outbox order per sender) and Stats, violations included, are
// bit-identical at every parallelism level.
func (c *Cluster) Step(fn StepFunc) {
	c.stepFn = fn
	c.exec.Run(c.cfg.Machines, c.runStep)
	c.stepFn = nil
	msgs, words := c.stats.Messages, c.stats.WordsSent
	c.route()
	c.charge(c.stats.Messages-msgs, c.stats.WordsSent-words)
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
	// Drop payload references from the retired inboxes and keep their
	// backing arrays as the next round's delivery buffers.
	for i := range retired {
		clear(retired[i])
		retired[i] = retired[i][:0]
	}
	c.spare = retired
	c.stats.Rounds++
	c.reduceMemory(c.stateWords)
}

// route delivers the outboxes of the compute phase into the spare inbox
// set, senders in machine order and each outbox in order, and meters the
// sender side as it goes: an invalid destination is a violation, and a
// sender's message and word totals are added and its send cap checked once
// its outbox is routed.
func (c *Cluster) route() {
	M := c.cfg.Machines
	next := c.spare
	clear(c.recvWords)
	for i, out := range c.outs {
		sw, cnt := 0, 0
		for _, msg := range out {
			if msg.To < 0 || msg.To >= M {
				c.violate("machine %d sent to invalid machine %d", i, msg.To)
				continue
			}
			w := 0
			if msg.Payload != nil {
				w = msg.Payload.Words()
			}
			msg.From = i
			next[msg.To] = append(next[msg.To], msg)
			c.recvWords[msg.To] += w
			sw += w
			cnt++
		}
		c.outs[i] = nil
		c.stats.Messages += int64(cnt)
		c.stats.WordsSent += int64(sw)
		if sw > c.cfg.LocalMemory {
			c.violate("machine %d sent %d words in one round (cap %d)", i, sw, c.cfg.LocalMemory)
		}
		if sw > c.stats.MaxSendWords {
			c.stats.MaxSendWords = sw
		}
	}
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
// Machine id's store is re-metered afterwards (no other store changed) and
// the memory peaks and caps are checked, so state growth is still observed.
func (c *Cluster) LocalAt(id int, fn func(m *Machine)) {
	fn(c.machines[id])
	c.stateWords[id] = c.machines[id].StateWords()
	c.reduceMemory(c.stateWords)
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
// re-metered afterwards, so what the landing stores is observed — peaks and
// cap violations — exactly as at a round boundary. The next Step sees none
// of the landed messages.
func (c *Cluster) Land(fn func(m *Machine, inbox []Message)) {
	c.landFn = fn
	c.exec.Run(c.cfg.Machines, c.runLand)
	c.landFn = nil
	c.reduceMemory(c.stateWords)
}

// fanout returns the broadcast/aggregation tree fanout for payloads of w
// words: the number of children one machine can serve within its
// communication budget, at least 2.
func (c *Cluster) fanout(w int) int { return fanoutWithin(c.cfg.LocalMemory, w) }

// fanoutWithin is fanout for a sender with s words of its round to spare.
func fanoutWithin(s, w int) int {
	if w <= 0 {
		w = 1
	}
	return max(s/w, 2)
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
// once-built dispatch callback (Cluster.runBcast). parts are the addressed
// parts of a TellParts, sent with the first round; nparts[i] counts those
// addressed to machine i, which lead its inbox of that round, and held[i] is
// the list its store holds them in until they are handed over.
type bcastState struct {
	outs     [][]Message
	from     int
	payload  Sized
	frontier int // ranks [0, frontier) hold the payload
	fanout   int
	parts    []Message
	nparts   []int
	held     []partList
}

// partList is the store slot of the parts one machine was addressed: metered
// from the round they arrive until its Tell hands them over.
type partList struct {
	parts []Sized
	words int
}

// Words implements Sized.
func (p *partList) Words() int { return p.words }

// slotParts is the store slot a machine's parts occupy.
const slotParts = "mpc.parts"

// bcastStep is the per-round callback of Broadcast: store what arrived, and
// if this machine's rank is inside the frontier, serve its fanout-1 children.
// Machines are ranked so that the source is rank 0 of a contiguous tree. In
// the first round the source sends the parts ahead of the copies.
func (c *Cluster) bcastStep(m *Machine, inbox []Message) []Message {
	bc := &c.bc
	if bc.frontier > 1 { // the first round has nothing to land
		c.bcastLand(m, inbox)
	}
	M := c.cfg.Machines
	r := (m.ID - bc.from + M) % M
	if r >= bc.frontier {
		return nil
	}
	out := bc.outs[m.ID][:0]
	if bc.frontier == 1 {
		out = append(out, bc.parts...)
	}
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

// bcastLand stores what a machine was just delivered: its parts, which lead
// the inbox of the first round, in its part list, and the payload.
func (c *Cluster) bcastLand(m *Machine, inbox []Message) {
	if n := c.bc.nparts[m.ID]; n > 0 {
		c.bc.nparts[m.ID] = 0
		pl := &c.bc.held[m.ID]
		for _, msg := range inbox[:n] {
			pl.parts = append(pl.parts, msg.Payload)
			if msg.Payload != nil {
				pl.words += msg.Payload.Words()
			}
		}
		m.Set(slotParts, pl)
		inbox = inbox[n:]
	}
	for _, msg := range inbox {
		m.Set(slotTold, msg.Payload)
	}
}

// broadcast delivers payload from machine `from` to every machine via a
// fanout tree, storing it on arrival under slotTold, where Ask and Tell pick
// it up, and the parts queued by TellParts (bc.parts) in the first round. It
// costs the tree depth, ceil(log_f M) rounds where f = s / payload words, s
// less the parts' words (1 on a single machine); the last round's deliveries
// are landed, not stepped for. The payload value is shared (not copied);
// receivers must treat it as read-only. A steady-state broadcast allocates
// nothing.
func (c *Cluster) broadcast(from int, payload Sized) {
	bc := &c.bc
	bc.from, bc.payload = from, payload
	partWords := 0
	for _, p := range bc.parts {
		if p.Payload != nil {
			partWords += p.Payload.Words()
		}
		if p.To >= 0 && p.To < c.cfg.Machines {
			bc.nparts[p.To]++
		}
	}
	bc.fanout = fanoutWithin(c.cfg.LocalMemory-partWords, payload.Words())
	c.machines[from].Set(slotTold, payload)
	bc.frontier = 1
	for d := treeDepth(c.cfg.Machines, bc.fanout); d > 0; d-- {
		c.Step(c.runBcast)
		bc.frontier *= bc.fanout
	}
	// Land the deliveries of the last round: it always makes some unless the
	// machine is alone (the depth is minimal, so the frontier was short of M)
	// and was addressed no part, and then re-metering an unchanged store would
	// only repeat its violations.
	if c.cfg.Machines > 1 || len(bc.parts) > 0 {
		c.Land(c.landBcast)
	}
	bc.payload, bc.parts = nil, nil
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
