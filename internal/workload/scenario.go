package workload

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Generator is the common interface of every update-stream generator: Next
// emits the next batch of at most size valid updates (possibly fewer if the
// scenario stalls, e.g. a saturated insert-only stream), and Mirror exposes
// the reference graph reflecting every update emitted so far. Generators
// are seeded and deterministic, and their choices never depend on algorithm
// state — the oblivious-adversary model of the paper.
type Generator interface {
	Next(size int) graph.Batch
	Mirror() *graph.Graph
}

// Scenario is a registry entry: a named, seeded stream family plus the
// metadata the differential harness needs to pair it with algorithms.
type Scenario struct {
	// Name is the registry key (also the -scenario CLI value).
	Name string
	// Stresses summarizes what regime the stream exercises (shown in the
	// README catalogue and the E14 table).
	Stresses string
	// InsertOnly marks streams that never emit deletions; only these may
	// drive the insertion-only algorithms (exact MSF, greedy matching).
	InsertOnly bool
	// Weighted marks streams whose updates carry weights >= 1, required by
	// the MSF algorithms.
	Weighted bool
	// New builds a fresh generator on n vertices from the seed.
	New func(n int, seed uint64) Generator
}

// registry maps scenario names to their entries. It is populated by the
// Register calls in scenarios.go at init time and never mutated afterwards,
// so concurrent readers need no locking.
var registry = map[string]Scenario{}

// Register adds a scenario to the registry. It panics on duplicate or
// anonymous registrations (registration happens at init time; a bad entry
// is a programming error).
func Register(s Scenario) {
	if s.Name == "" || s.New == nil {
		panic("workload: Register with empty name or nil constructor")
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate scenario %q", s.Name))
	}
	registry[s.Name] = s
}

// Get returns the named scenario or an error listing the valid names.
func Get(name string) (Scenario, error) {
	s, ok := registry[name]
	if !ok {
		return Scenario{}, fmt.Errorf("workload: unknown scenario %q (have %v)", name, Names())
	}
	return s, nil
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
