package pathcover

import (
	"math"

	"pathcover/internal/cotree"
	"pathcover/internal/workload"
)

// Shape selects the silhouette of a random cograph's cotree.
type Shape = workload.Shape

// Shapes for Random.
const (
	Mixed       = workload.Mixed
	Balanced    = workload.Balanced
	Caterpillar = workload.Caterpillar
)

// The generators panic with a *SizeError for n < 0 or n > MaxVertices
// (their signatures predate the guard).

// Random returns a random cograph with n vertices, deterministic in the
// seed.
func Random(seed uint64, n int, shape Shape) *Graph {
	mustValidN(n)
	return &Graph{t: workload.Random(seed, n, shape)}
}

// Relabelled returns the same graph as g under a rewritten
// presentation: vertex ids permuted and cotree child order shuffled,
// deterministically in the seed (names travel with the vertices, so
// Name is the stable identity across presentations). The result is
// isomorphic to g — equal CanonicalHash, different wire form — which
// makes Relabelled the generator for exercising canonical-identity
// machinery: caches keyed on canonical form treat g and Relabelled(g,
// s) as one graph. Cographs only; raw (FromEdgesAny) graphs have no
// cotree to rewrite and panic.
func Relabelled(g *Graph, seed uint64) *Graph {
	if g.t == nil {
		panic("pathcover: Relabelled requires a cograph")
	}
	return &Graph{t: cotree.Permute(g.t, seed)}
}

// Clique returns the complete graph K_n.
func Clique(n int) *Graph {
	mustValidN(n)
	return &Graph{t: workload.Clique(n)}
}

// Empty returns the edgeless graph on n vertices.
func Empty(n int) *Graph {
	mustValidN(n)
	return &Graph{t: workload.Empty(n)}
}

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) *Graph {
	mustValidN(a)
	mustValidN(b)
	mustValidTotal(int64(a) + int64(b))
	return &Graph{t: workload.CompleteBipartite(a, b)}
}

// CompleteMultipartite returns the complete multipartite graph with the
// given part sizes.
func CompleteMultipartite(sizes ...int) *Graph {
	total := int64(0)
	for _, sz := range sizes {
		mustValidN(sz)
		total += int64(sz)
		mustValidTotal(total)
	}
	return &Graph{t: workload.CompleteMultipartite(sizes...)}
}

// mustValidTotal guards an accumulated vertex count kept in int64 so the
// sum itself cannot wrap past the check on 32-bit hosts; the *SizeError
// payload clamps to what int can hold there.
func mustValidTotal(total int64) {
	if total <= int64(MaxVertices) {
		return
	}
	n := MaxVertices
	if total <= int64(math.MaxInt) {
		n = int(total)
	}
	panic(&SizeError{N: n, Max: MaxVertices})
}

// UnionOfCliques returns k disjoint copies of K_size.
func UnionOfCliques(k, size int) *Graph {
	mustValidN(k)
	mustValidN(size)
	// Overflow-safe product guard: k*size itself can wrap on 32-bit
	// hosts, which is exactly the silent truncation this guard exists to
	// prevent.
	if size > 0 {
		if prod := int64(k) * int64(size); prod > int64(MaxVertices) {
			n := MaxVertices // clamp the payload where int cannot hold the product
			if prod <= int64(math.MaxInt) {
				n = int(prod)
			}
			panic(&SizeError{N: n, Max: MaxVertices})
		}
	}
	return &Graph{t: workload.UnionOfCliques(k, size)}
}

// Star returns the star K_{1,n-1}.
func Star(n int) *Graph {
	mustValidN(n)
	return &Graph{t: workload.Star(n)}
}

// Threshold returns a random threshold graph on n vertices (each vertex
// added isolated or dominating); its cotree is a caterpillar, the
// worst-case shape for naive bottom-up parallelization.
func Threshold(seed uint64, n int) *Graph {
	mustValidN(n)
	return &Graph{t: workload.Threshold(seed, n)}
}

// MustParseCotree is ParseCotree for known-good literals.
func MustParseCotree(src string) *Graph {
	return &Graph{t: cotree.MustParse(src)}
}
