package graph

import (
	"math/rand"
	"testing"
)

func TestMinUnionRootsAreMinima(t *testing.T) {
	var zero MinUnion
	if zero.Find(7) != 7 {
		t.Error("zero value: a key is not its own root")
	}
	if root, absorbed, merged := zero.Union(5, 5); merged || root != 5 || absorbed != 5 {
		t.Errorf("Union(5, 5) = %d, %d, %v", root, absorbed, merged)
	}
	// Whatever the order of the unions, the root of a set is its minimum.
	pairs := [][2]int{{9, 4}, {4, 7}, {30, 20}, {7, 30}, {100, 101}}
	for trial := 0; trial < 20; trial++ {
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		var u MinUnion
		merges := 0
		for _, p := range pairs {
			root, absorbed, merged := u.Union(p[0], p[1])
			if merged {
				merges++
				if root >= absorbed {
					t.Fatalf("Union%v kept root %d over %d", p, root, absorbed)
				}
			}
		}
		if merges != len(pairs) {
			t.Fatalf("%d merges over a forest of %d pairs", merges, len(pairs))
		}
		for _, k := range []int{4, 7, 9, 20, 30} {
			if r := u.Find(k); r != 4 {
				t.Fatalf("Find(%d) = %d, want 4", k, r)
			}
		}
		if u.Find(101) != 100 || u.Find(55) != 55 {
			t.Fatal("unrelated sets disturbed")
		}
		if _, _, merged := u.Union(9, 20); merged {
			t.Fatal("Union inside one set reported a merge")
		}
	}
}
