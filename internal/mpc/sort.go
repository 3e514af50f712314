package mpc

import "sort"

// keyRun is the routed payload of round 3: a run of keys, each standing for
// an item of itemWords words.
type keyRun struct {
	keys      []uint64
	itemWords int
}

// Words implements Sized.
func (r keyRun) Words() int { return len(r.keys) * r.itemWords }

// SortByKey redistributes keyed items across machines so that afterwards
// machine 0 holds the smallest keys, machine 1 the next range, and so on,
// with every machine's items locally sorted. It is a sample sort in the
// style of Goodrich–Sitchinava–Zhang (the O(1)-round MPC sorting primitive
// the paper relies on for consolidating updates, Section 1.2):
//
//  1. every machine sends a sample of its keys to the coordinator,
//  2. the coordinator broadcasts M-1 splitters,
//  3. every machine routes each item to the splitter-chosen destination,
//
// and the destinations land the routed items (sort them locally, hand them
// back) without a fourth round: 3 rounds in all.
//
// items are provided and received through the callbacks so the caller
// controls representation; itemWords meters the per-item payload size.
// The coordinator-side buffers (local, received, splitters) are indexed by
// machine id or touched only by machine 0, satisfying the StepFunc
// concurrency contract under parallel executors.
// The caller must ensure the per-destination volume fits the cap (true for
// balanced inputs, which is what the sampling guarantees w.h.p.; the
// simulator meters violations otherwise).
func (c *Cluster) SortByKey(
	take func(m *Machine) []uint64,
	give func(m *Machine, keys []uint64),
	itemWords int,
) {
	M := c.cfg.Machines
	local := make([][]uint64, M)
	for i, m := range c.machines {
		local[i] = take(m)
	}
	// Round 1: sample. Each machine contributes up to sampleRate evenly
	// spaced keys.
	const samplePerMachine = 8
	var splitters []uint64
	c.Step(func(m *Machine, inbox []Message) []Message {
		keys := local[m.ID]
		if len(keys) == 0 {
			return nil
		}
		sorted := append([]uint64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		step := len(sorted) / samplePerMachine
		if step == 0 {
			step = 1
		}
		var sample []uint64
		for i := 0; i < len(sorted); i += step {
			sample = append(sample, sorted[i])
		}
		return []Message{{To: 0, Payload: U64s(sample)}}
	})
	// Round 2: the coordinator (machine 0 for sorting) picks splitters and
	// broadcasts them.
	c.Step(func(m *Machine, inbox []Message) []Message {
		if m.ID != 0 {
			return nil
		}
		var all []uint64
		for _, msg := range inbox {
			all = append(all, msg.Payload.(U64s)...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		splitters = splitters[:0]
		for i := 1; i < M; i++ {
			idx := i * len(all) / M
			if idx >= len(all) {
				idx = len(all) - 1
			}
			if len(all) > 0 {
				splitters = append(splitters, all[idx])
			}
		}
		var out []Message
		for to := 0; to < M; to++ {
			out = append(out, Message{To: to, Payload: U64s(splitters)})
		}
		return out
	})
	// Round 3: route every item by splitter interval.
	received := make([][]uint64, M)
	c.Step(func(m *Machine, inbox []Message) []Message {
		var sp []uint64
		for _, msg := range inbox {
			sp = msg.Payload.(U64s)
		}
		dest := func(k uint64) int {
			return sort.Search(len(sp), func(i int) bool { return sp[i] > k })
		}
		byDest := make(map[int][]uint64)
		for _, k := range local[m.ID] {
			d := dest(k)
			byDest[d] = append(byDest[d], k)
		}
		var out []Message
		for d, ks := range byDest {
			out = append(out, Message{To: d, Payload: keyRun{keys: ks, itemWords: itemWords}})
		}
		return out
	})
	// Land round 3: locally sort, hand back.
	c.Land(func(m *Machine, inbox []Message) {
		for _, msg := range inbox {
			received[m.ID] = append(received[m.ID], msg.Payload.(keyRun).keys...)
		}
		sort.Slice(received[m.ID], func(i, j int) bool { return received[m.ID][i] < received[m.ID][j] })
	})
	for i, m := range c.machines {
		give(m, received[i])
	}
}
