package workload

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestChurnBatchesAreValid(t *testing.T) {
	c := NewChurn(Config{N: 20, Seed: 1})
	check := graph.New(20)
	for step := 0; step < 30; step++ {
		b := c.Next(5)
		if err := check.Apply(b); err != nil {
			t.Fatalf("step %d: invalid batch: %v", step, err)
		}
	}
	if check.M() != c.Mirror().M() {
		t.Errorf("mirror M %d, check M %d", c.Mirror().M(), check.M())
	}
}

func TestChurnWeighted(t *testing.T) {
	c := NewChurn(Config{N: 10, Seed: 2, MaxWeight: 7})
	b := c.NextInsertOnly(8)
	for _, u := range b {
		if u.Weight < 1 || u.Weight > 7 {
			t.Errorf("weight %d out of range", u.Weight)
		}
	}
}

func TestChurnInsertOnly(t *testing.T) {
	c := NewChurn(Config{N: 12, Seed: 3})
	ins := c.NextInsertOnly(6)
	for _, u := range ins {
		if u.Op != graph.Insert {
			t.Fatal("NextInsertOnly emitted a delete")
		}
	}
}

func TestChurnInsertBiasDensifies(t *testing.T) {
	dense := NewChurn(Config{N: 16, Seed: 4, InsertBias: 0.95})
	sparse := NewChurn(Config{N: 16, Seed: 4, InsertBias: 0.05})
	for step := 0; step < 40; step++ {
		dense.Next(4)
		sparse.Next(4)
	}
	if dense.Mirror().M() <= sparse.Mirror().M() {
		t.Errorf("dense M %d <= sparse M %d", dense.Mirror().M(), sparse.Mirror().M())
	}
}

func TestPathStream(t *testing.T) {
	batches := PathStream(10, 4)
	total := 0
	g := graph.New(10)
	for _, b := range batches {
		if len(b) > 4 {
			t.Errorf("batch size %d > 4", len(b))
		}
		total += len(b)
		if err := g.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if total != 9 {
		t.Errorf("total edges %d, want 9", total)
	}
}

func TestBipartiteishViolation(t *testing.T) {
	b := NewBipartiteish(16, 5, 2)
	sawSameParity := false
	for step := 0; step < 4; step++ {
		batch := b.Next(4)
		for _, u := range batch {
			if (u.Edge.U^u.Edge.V)&1 == 0 {
				if step != 2 {
					t.Errorf("same-parity edge at step %d", step)
				}
				sawSameParity = true
			}
		}
	}
	if !sawSameParity {
		t.Error("violation step emitted no same-parity edge")
	}
}

func TestNewChurnPanicsOnTinyN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N=1 did not panic")
		}
	}()
	NewChurn(Config{N: 1})
}

// TestConfigValidate pins the construction-time validation the CLIs and the
// server rely on: every malformed config yields a descriptive error, every
// usable one (including zero-value defaults) passes.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{N: 0},
		{N: 1},
		{N: -5},
		{N: 16, MaxWeight: -1},
		{N: 16, InsertBias: -0.1},
		{N: 16, InsertBias: 1.5},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated", cfg)
		}
	}
	good := []Config{
		{N: 2},
		{N: 16, MaxWeight: 64, InsertBias: 0.6},
		{N: 16, InsertBias: 1}, // boundary: keep every existing edge
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

// TestConstructorsRejectTinyN checks every scenario constructor fails fast
// with the shared diagnostic instead of a graph.New or prg.NextN panic.
func TestConstructorsRejectTinyN(t *testing.T) {
	ctors := map[string]func(){
		"churn":     func() { NewChurn(Config{N: 1}) },
		"powerlaw":  func() { NewPowerLaw(1, 1, 0.25, 0) },
		"window":    func() { NewSlidingWindow(1, 0, 1, 0) },
		"community": func() { NewCommunity(1, 0, 0, 1) },
		"bursty":    func() { NewBursty(1, 1) },
		"star":      func() { NewStar(1, 1) },
		"path":      func() { NewPathChurn(1, 1) },
		"cliques":   func() { NewCliques(1, 0, 1) },
		"bipartite": func() { NewBipartiteish(1, 1) },
		"querymix":  func() { NewQueryMix(NewStar(4, 1), 1, 1) },
	}
	for name, ctor := range ctors {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, ok := recover().(string)
				if !ok {
					t.Fatal("n=1 did not panic with a diagnostic")
				}
				if !strings.Contains(msg, "at least 2 vertices") && !strings.Contains(msg, "n = 1") {
					t.Fatalf("panic message not descriptive: %q", msg)
				}
			}()
			ctor()
		})
	}
}
