package baseline

import (
	"pathcover/internal/cotree"
	"pathcover/internal/pram"
)

// NaiveCover emulates the naive parallelization discussed in §2 of the
// paper: the sequential bottom-up merge is run level-synchronously, so
// every level of the binarized cotree costs one O(log n) parallel merge
// phase and the total simulated time is O(height(Tbl) * log n) — O(n log n)
// in the worst case (a caterpillar cotree), versus the bracket
// algorithm's O(log n).
//
// The covers themselves are computed with the same linked-list machinery
// as SequentialCover (the emulation concerns the cost model, not the
// output), so NaiveCover doubles as a second correctness reference.
func NaiveCover(s *pram.Sim, b *cotree.Bin, L []int32) [][]int {
	n := b.NumNodes()
	if n == 0 {
		return nil
	}
	// Height of the binarized cotree.
	depth := make([]int, n)
	height := 0
	// BFS from root over child links.
	queue := []int{b.Root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if depth[u] > height {
			height = depth[u]
		}
		for _, c := range []int32{b.Left[u], b.Right[u]} {
			if c >= 0 {
				depth[c] = depth[u] + 1
				queue = append(queue, int(c))
			}
		}
	}
	// Cost model: each of the height+1 levels performs its merges as one
	// parallel phase dominated by an O(log n) list-ranking step; the work
	// per level is proportional to the vertices touched, totalling the
	// sequential O(n) spread across levels (so naive is work-acceptable
	// but time-poor, exactly the paper's point).
	lg := int64(1)
	for v := 1; v < n; v <<= 1 {
		lg++
	}
	s.Charge(int64(height+1)*lg, int64(n)+int64(height+1)*lg)
	return SequentialCover(b, L)
}

// Height returns the height of a binarized cotree (edges on the longest
// root-leaf path).
func Height(b *cotree.Bin) int {
	n := b.NumNodes()
	depth := make([]int, n)
	h := 0
	queue := []int{b.Root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if depth[u] > h {
			h = depth[u]
		}
		for _, c := range []int32{b.Left[u], b.Right[u]} {
			if c >= 0 {
				depth[c] = depth[u] + 1
				queue = append(queue, int(c))
			}
		}
	}
	return h
}
