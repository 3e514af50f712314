package graph

// MinUnion is a union-find over sparse int keys in which the root of every
// set is its minimum key, so the roots do not depend on the order of the
// unions. The zero value is an empty partition: every key is its own set.
// It is the coordinator-side contraction of component and supernode labels
// (Borůvka levels, the auxiliary forest F_H, Kruskal over components).
type MinUnion struct{ parent map[int]int }

// Find returns the root (the minimum key) of x's set.
func (u *MinUnion) Find(x int) int {
	p, ok := u.parent[x]
	if !ok || p == x {
		return x
	}
	r := u.Find(p)
	u.parent[x] = r
	return r
}

// Union merges the sets of a and b. It returns the root of the merged set,
// the root it absorbed, and whether the two were distinct sets before (when
// they were not, root == absorbed).
func (u *MinUnion) Union(a, b int) (root, absorbed int, merged bool) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return ra, rb, false
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	if u.parent == nil {
		u.parent = map[int]int{}
	}
	u.parent[rb] = ra
	return ra, rb, true
}
