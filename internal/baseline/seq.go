// Package baseline implements the comparators of the paper:
//
//   - the Lin–Olariu–Pruesse O(n) sequential minimum path cover algorithm
//     (Lemma 2.3), used as the work-optimality reference;
//   - an emulated "naive parallelization" whose simulated time is
//     O(height(T) * log n) — the strawman of the paper's §2 that the
//     bracket technique removes;
//   - a Held–Karp style brute-force minimum path cover for small graphs,
//     the minimality oracle of the test suite.
package baseline

import (
	"pathcover/internal/cotree"
	"pathcover/internal/pram"
)

// cover is a linked collection of vertex-disjoint paths over the global
// vertex arrays of a run.
type cover struct {
	first, last int // head vertices of the first and last path; -1 if empty
	paths       int
}

type seqState struct {
	nxt, prv []int // intra-path links per vertex
	pathNext []int // head -> head of the next path in its cover
	tail     []int // head -> tail vertex of its path
	plen     []int // head -> number of vertices in its path
}

// SequentialCover computes a minimum path cover of the cograph given by
// a leftist binarized cotree b with leaf counts L, in O(n) time (paper
// Lemma 2.3). The implementation keeps every cover as a linked list of
// linked paths so that case-1 bridging costs O(L(w)) amortized against
// the drop in path count and case-2 splices whole existing paths of G(w)
// as segments, touching only O(p(v) + p(w)) links.
func SequentialCover(b *cotree.Bin, L []int32) [][]int {
	return sequentialCoverFrom(b, L, b.Root)
}

// sequentialCoverFrom runs the bottom-up merge for the subtree rooted at
// the given cotree node and materializes its cover.
func sequentialCoverFrom(b *cotree.Bin, L []int32, from int) [][]int {
	n := b.NumVertices()
	if n == 0 {
		return nil
	}
	nNodes := b.NumNodes()
	st := &seqState{
		nxt:      make([]int, n),
		prv:      make([]int, n),
		pathNext: make([]int, n),
		tail:     make([]int, n),
		plen:     make([]int, n),
	}
	for v := 0; v < n; v++ {
		st.nxt[v], st.prv[v], st.pathNext[v] = -1, -1, -1
		st.tail[v] = v
		st.plen[v] = 1
	}
	covers := make([]cover, nNodes)

	// Iterative post-order over the binary cotree.
	type frame struct {
		node  int
		stage int
	}
	stack := []frame{{from, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		u := f.node
		if b.IsLeaf(u) {
			v := int(b.VertexOf[u])
			covers[u] = cover{first: v, last: v, paths: 1}
			stack = stack[:len(stack)-1]
			continue
		}
		switch f.stage {
		case 0:
			f.stage = 1
			stack = append(stack, frame{int(b.Left[u]), 0})
		case 1:
			f.stage = 2
			stack = append(stack, frame{int(b.Right[u]), 0})
		default:
			cv, cw := covers[b.Left[u]], covers[b.Right[u]]
			if !b.One[u] {
				covers[u] = st.concat(cv, cw)
			} else if cv.paths > int(L[b.Right[u]]) {
				covers[u] = st.bridge(cv, cw)
			} else {
				covers[u] = st.interleave(cv, cw)
			}
			stack = stack[:len(stack)-1]
		}
	}

	// Materialize the cover of the requested subtree.
	var out [][]int
	for h := covers[from].first; h >= 0; h = st.pathNext[h] {
		path := make([]int, 0, st.plen[h])
		for v := h; v >= 0; v = st.nxt[v] {
			path = append(path, v)
		}
		out = append(out, path)
	}
	return out
}

// concat is the 0-node rule: the union of the two covers.
func (st *seqState) concat(a, b cover) cover {
	if a.paths == 0 {
		return b
	}
	if b.paths == 0 {
		return a
	}
	st.pathNext[st.lastHead(a)] = b.first
	return cover{first: a.first, last: b.last, paths: a.paths + b.paths}
}

func (st *seqState) lastHead(c cover) int { return c.last }

// link joins the tail of the path headed at h1 to the head h2, producing
// one path headed at h1.
func (st *seqState) link(h1, h2 int) {
	t := st.tail[h1]
	st.nxt[t] = h2
	st.prv[h2] = t
	st.tail[h1] = st.tail[h2]
	st.plen[h1] += st.plen[h2]
}

// bridge is Case 1 (p(v) > L(w)): the L(w) vertices of G(w) bridge
// L(w)+1 paths of G(v)'s cover into one.
func (st *seqState) bridge(cv, cw cover) cover {
	// Enumerate the vertices of G(w); their path structure is discarded.
	var ws []int
	for h := cw.first; h >= 0; {
		nh := st.pathNext[h]
		for v := h; v >= 0; {
			nv := st.nxt[v]
			ws = append(ws, v)
			st.nxt[v], st.prv[v], st.pathNext[v] = -1, -1, -1
			st.tail[v], st.plen[v] = v, 1
			v = nv
		}
		h = nh
	}
	// Collect the first len(ws)+1 path heads of cv.
	k := len(ws)
	heads := make([]int, 0, k+1)
	h := cv.first
	for i := 0; i <= k; i++ {
		heads = append(heads, h)
		h = st.pathNext[h]
	}
	// Join: heads[0] w0 heads[1] w1 ... heads[k].
	merged := heads[0]
	for i, w := range ws {
		st.link(merged, w)
		st.link(merged, heads[i+1])
	}
	st.pathNext[merged] = h // remaining paths of cv
	last := cv.last
	if last == heads[k] { // all paths consumed into one
		last = merged
	}
	return cover{first: merged, last: last, paths: cv.paths - k}
}

// interleave is Case 2 (p(v) <= L(w)): the cover of G(u) is a single
// Hamiltonian path. Whole paths of G(w) serve as bridge segments between
// consecutive paths of G(v); surplus segments are spliced into interior
// edges of the G(v) paths (every vertex of G(w) is adjacent to every
// vertex of G(v), and a segment's interior edges are real edges of
// G(w)), with the two path ends as final spare slots.
func (st *seqState) interleave(cv, cw cover) cover {
	// Segment pool: the paths of G(w).
	var segs []int
	for h := cw.first; h >= 0; h = st.pathNext[h] {
		segs = append(segs, h)
	}
	seams := cv.paths - 1
	// Need at least `seams` segments: cut leading vertices off long
	// segments until the pool is large enough (capacity L(w) >= p(v)).
	for i := 0; len(segs) < seams; i++ {
		for st.plen[segs[i]] >= 2 && len(segs) < seams {
			h := segs[i]
			h2 := st.nxt[h]
			st.nxt[h] = -1
			st.prv[h2] = -1
			st.tail[h2] = st.tail[h]
			st.plen[h2] = st.plen[h] - 1
			st.tail[h] = h
			st.plen[h] = 1
			segs = append(segs, h2)
		}
	}
	for _, h := range segs {
		st.pathNext[h] = -1
	}

	// v-paths.
	vheads := make([]int, 0, cv.paths)
	for h := cv.first; h >= 0; h = st.pathNext[h] {
		vheads = append(vheads, h)
	}

	// Splice surplus segments into interior edges of the v-paths.
	surplus := segs[seams:]
	si := 0
	for _, h := range vheads {
		if si >= len(surplus) {
			break
		}
		x := h
		for st.nxt[x] >= 0 && si < len(surplus) {
			y := st.nxt[x]
			t := surplus[si]
			si++
			// x - t...tail(t) - y
			tt := st.tail[t]
			st.nxt[x] = t
			st.prv[t] = x
			st.nxt[tt] = y
			st.prv[y] = tt
			st.plen[h] += st.plen[t]
			if st.tail[h] == x {
				st.tail[h] = tt // x was the tail (cannot happen: y existed)
			}
			x = y
		}
	}

	// Seam-join: V1 S1 V2 S2 ... V_{p(v)}.
	merged := vheads[0]
	for i := 0; i < seams; i++ {
		st.link(merged, segs[i])
		st.link(merged, vheads[i+1])
	}

	// Any remaining surplus goes to the two ends (capacity argument of
	// the paper's Fig. 12 guarantees at most two are left).
	if si < len(surplus) {
		t := surplus[si]
		si++
		st.link(t, merged)
		merged = t
	}
	if si < len(surplus) {
		t := surplus[si]
		si++
		st.link(merged, t)
	}
	if si != len(surplus) {
		panic("baseline: interleave ran out of splice slots (capacity violated)")
	}
	st.pathNext[merged] = -1
	return cover{first: merged, last: merged, paths: 1}
}

// PathCounts evaluates the Lin et al. recurrence for p(u) on every node
// of a leftist binarized cotree by direct bottom-up recursion — the
// sequential reference for the parallel tree-contraction of Step 3.
func PathCounts(b *cotree.Bin, L []int32) []int32 {
	n := b.NumNodes()
	p := make([]int32, n)
	// Post-order via stack.
	type frame struct{ node, stage int }
	stack := []frame{{b.Root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		u := f.node
		if b.IsLeaf(u) {
			p[u] = 1
			stack = stack[:len(stack)-1]
			continue
		}
		switch f.stage {
		case 0:
			f.stage = 1
			stack = append(stack, frame{int(b.Left[u]), 0})
		case 1:
			f.stage = 2
			stack = append(stack, frame{int(b.Right[u]), 0})
		default:
			if b.One[u] {
				p[u] = p[b.Left[u]] - L[b.Right[u]]
				if p[u] < 1 {
					p[u] = 1
				}
			} else {
				p[u] = p[b.Left[u]] + p[b.Right[u]]
			}
			stack = stack[:len(stack)-1]
		}
	}
	return p
}

// Run computes a minimum path cover from a general cotree, handling
// binarization and leftist reordering internally (sequentially).
func Run(t *cotree.Tree) [][]int {
	s := pram.NewSerial()
	b := t.Binarize(s)
	L := b.MakeLeftist(s, 1)
	return SequentialCover(b, L)
}
