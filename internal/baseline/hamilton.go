package baseline

import (
	"pathcover/internal/cotree"
)

// HasHamiltonianPath reports whether the cograph has a Hamiltonian path:
// by the paper, exactly when p(root) = 1.
func HasHamiltonianPath(b *cotree.Bin, L []int32) bool {
	return PathCounts(b, L)[b.Root] == 1
}

// HasHamiltonianCycle decides Hamiltonicity for cycles: a cograph on
// n >= 3 vertices has a Hamiltonian cycle iff its (leftist binarized)
// cotree root is a 1-node with p(left) <= L(right).
//
// Sufficiency: a minimum cover of G(v) with p <= L(w) paths can be split
// into exactly L(w) paths and alternated with the L(w) vertices of G(w)
// around a cycle (all cross edges exist at a join). Necessity: removing
// the L(w) vertices of G(w) from a Hamiltonian cycle leaves at most L(w)
// arcs, which cover G(v), so p(v) <= L(w).
func HasHamiltonianCycle(b *cotree.Bin, L []int32) bool {
	n := b.NumVertices()
	root := b.Root
	if n < 3 || b.IsLeaf(root) || !b.One[root] {
		return false
	}
	p := PathCounts(b, L)
	return p[b.Left[root]] <= L[b.Right[root]]
}

// HamiltonianCycle constructs a Hamiltonian cycle when one exists
// (sequentially, O(n)). The boolean reports existence.
func HamiltonianCycle(b *cotree.Bin, L []int32) ([]int, bool) {
	if !HasHamiltonianCycle(b, L) {
		return nil, false
	}
	root := b.Root
	v, w := b.Left[root], b.Right[root]
	paths := CoverSubtree(b, L, int(v))
	k := int(L[w])
	// Split the cover into exactly k paths (cut leading vertices off).
	for len(paths) < k {
		for i := 0; i < len(paths) && len(paths) < k; i++ {
			if len(paths[i]) >= 2 {
				paths = append(paths, paths[i][1:])
				paths[i] = paths[i][:1]
			}
		}
	}
	// Vertices of G(w).
	ws := subtreeVertices(b, int(w))
	cycle := make([]int, 0, b.NumVertices())
	for i := 0; i < k; i++ {
		cycle = append(cycle, paths[i]...)
		cycle = append(cycle, ws[i])
	}
	return cycle, true
}

// HamiltonianPath returns a Hamiltonian path when one exists.
func HamiltonianPath(b *cotree.Bin, L []int32) ([]int, bool) {
	paths := SequentialCover(b, L)
	if len(paths) != 1 {
		return nil, false
	}
	return paths[0], true
}

// CoverSubtree computes a minimum path cover of G(u) for a node u of the
// binarized cotree (the full SequentialCover is the u = root case).
func CoverSubtree(b *cotree.Bin, L []int32, u int) [][]int {
	return sequentialCoverFrom(b, L, u)
}

func subtreeVertices(b *cotree.Bin, u int) []int {
	var out []int
	stack := []int{u}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b.IsLeaf(v) {
			out = append(out, int(b.VertexOf[v]))
			continue
		}
		stack = append(stack, int(b.Left[v]), int(b.Right[v]))
	}
	return out
}
