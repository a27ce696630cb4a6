// Package verify checks path covers against the graph a cotree
// represents: partition of the vertex set, edge-validity of every
// consecutive pair, and minimality against the Lin et al. recurrence.
// It is the shared referee of the test suites, the examples and the
// experiment harness.
package verify

import (
	"fmt"

	"pathcover/internal/baseline"
	"pathcover/internal/cotree"
	"pathcover/internal/pram"
)

// Cover verifies that paths form a valid path cover of the cograph
// represented by t: every vertex appears exactly once and consecutive
// path vertices are adjacent.
func Cover(t *cotree.Tree, paths [][]int) error {
	o := cotree.NewAdjOracle(t)
	n := t.NumVertices()
	seen := make([]bool, n)
	count := 0
	for pi, p := range paths {
		if len(p) == 0 {
			return fmt.Errorf("verify: path %d is empty", pi)
		}
		for i, v := range p {
			if v < 0 || v >= n {
				return fmt.Errorf("verify: path %d contains out-of-range vertex %d", pi, v)
			}
			if seen[v] {
				return fmt.Errorf("verify: vertex %s covered twice", t.Name(v))
			}
			seen[v] = true
			count++
			if i > 0 && !o.Adjacent(p[i-1], v) {
				return fmt.Errorf("verify: path %d uses non-edge (%s,%s)",
					pi, t.Name(p[i-1]), t.Name(v))
			}
		}
	}
	if count != n {
		return fmt.Errorf("verify: cover has %d vertices, graph has %d", count, n)
	}
	return nil
}

// Minimum verifies that the cover is as small as the Lin et al.
// recurrence p(root) allows (which the paper proves optimal).
func Minimum(t *cotree.Tree, paths [][]int) error {
	s := pram.NewSerial()
	b := t.Binarize(s)
	L := b.MakeLeftist(s, 1)
	want := int(baseline.PathCounts(b, L)[b.Root])
	if len(paths) != want {
		return fmt.Errorf("verify: cover has %d paths, minimum is %d", len(paths), want)
	}
	return nil
}

// MinimumCover runs both checks.
func MinimumCover(t *cotree.Tree, paths [][]int) error {
	if err := Cover(t, paths); err != nil {
		return err
	}
	return Minimum(t, paths)
}

// Cycle verifies that cycle is a Hamiltonian cycle of the cograph: a
// permutation of all vertices whose consecutive pairs (wrapping around)
// are adjacent, with at least 3 vertices.
func Cycle(t *cotree.Tree, cycle []int) error {
	n := t.NumVertices()
	if len(cycle) != n {
		return fmt.Errorf("verify: cycle visits %d of %d vertices", len(cycle), n)
	}
	if n < 3 {
		return fmt.Errorf("verify: a cycle needs at least 3 vertices")
	}
	if err := Cover(t, [][]int{cycle}); err != nil {
		return err
	}
	o := cotree.NewAdjOracle(t)
	if !o.Adjacent(cycle[n-1], cycle[0]) {
		return fmt.Errorf("verify: cycle endpoints (%s,%s) are not adjacent",
			t.Name(cycle[n-1]), t.Name(cycle[0]))
	}
	return nil
}
