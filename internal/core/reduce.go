package core

import (
	"pathcover/internal/cotree"
	"pathcover/internal/par"
	"pathcover/internal/pram"
)

// Reduction is the reduced leftist binarized cotree Tblr of the paper's
// §2 in implicit array form: for every 1-node u that is not itself inside
// the right subtree of another 1-node ("active"), the subtree of u's
// right child w is flattened into L(w) classified leaves (bridge or
// insert vertices, plus the dummy placeholders of §4), because the edges
// inside G(w) are never used by the cover.
type ReductionIx[I par.Ix] struct {
	NumVertices int

	// Per cotree node of b:
	Active     []bool // u is an active 1-node (emits a bracket block)
	NB, NI, ND []I    // bridge / insert / dummy counts at active nodes
	DummyBase  []I    // first dummy index belonging to u's block
	Start      []I    // leaf rank of the leftmost leaf under the node

	// Per vertex (0..n-1):
	Role     []Role
	Owner    []I // active 1-node that classified the vertex; -1 for primary
	RoleIdx  []I // index among its node's bridges or inserts
	LeafRank []I // inorder leaf rank of the vertex in b
	VertAt   []I // leaf rank -> vertex

	// Dummies (ids n..n+TotalDummies-1):
	TotalDummies int
	DummyOwner   []I // per dummy index: owning active 1-node

	P []I // p(u) per node (kept for the bracket generator)
	L []I // L(u) per node
}

// Release returns the reduction's slices — including the P slice it took
// ownership of, but not L, which stays with the caller — to the arena.
func (r *ReductionIx[I]) Release(s *pram.Sim) {
	pram.Release(s, r.Active)
	pram.Release(s, r.NB)
	pram.Release(s, r.NI)
	pram.Release(s, r.ND)
	pram.Release(s, r.DummyBase)
	pram.Release(s, r.Start)
	pram.Release(s, r.Role)
	pram.Release(s, r.Owner)
	pram.Release(s, r.RoleIdx)
	pram.Release(s, r.LeafRank)
	pram.Release(s, r.VertAt)
	pram.Release(s, r.DummyOwner)
	pram.Release(s, r.P)
	r.Active, r.DummyOwner, r.Role = nil, nil, nil
	r.NB, r.NI, r.ND, r.DummyBase, r.Start = nil, nil, nil, nil, nil
	r.Owner, r.RoleIdx, r.LeafRank, r.VertAt, r.P, r.L = nil, nil, nil, nil, nil, nil
}

// IsDummy reports whether a pseudo-tree id denotes a dummy vertex.
func (r *ReductionIx[I]) IsDummy(id int) bool { return id >= r.NumVertices }

// RoleOf returns the role of any pseudo-tree id (vertex or dummy).
func (r *ReductionIx[I]) RoleOf(id int) Role {
	if r.IsDummy(id) {
		return RoleDummy
	}
	return r.Role[id]
}

// OwnerOf returns the owning active 1-node of any pseudo-tree id.
func (r *ReductionIx[I]) OwnerOf(id int) int {
	if r.IsDummy(id) {
		return int(r.DummyOwner[id-r.NumVertices])
	}
	return int(r.Owner[id])
}

// reduceIx performs the classification half of Step 3: it determines the
// active 1-nodes, sizes their blocks (Case 1: L(w) bridges; Case 2:
// p(v)-1 bridges, L(w)-p(v)+1 inserts, 2p(v)-2 dummies), and assigns
// every vertex its role. O(log n) time, O(n) work: the bundle intervals
// are resolved with leaf-rank scatter + prefix scans rather than
// per-vertex ancestor walks.
func reduceIx[I par.Ix](s *pram.Sim, b *cotree.BinIx[I], L, p []I, tour *par.TourIx[I]) *ReductionIx[I] {
	nn := b.NumNodes()
	n := b.NumVertices()
	red := &ReductionIx[I]{
		NumVertices: n,
		Active:      pram.Grab[bool](s, nn),
		NB:          pram.Grab[I](s, nn),
		NI:          pram.Grab[I](s, nn),
		ND:          pram.Grab[I](s, nn),
		Start:       tour.LeafStarts(s, b.BinTree),
		Role:        pram.Grab[Role](s, n),
		Owner:       pram.GrabNoClear[I](s, n),
		RoleIdx:     pram.Grab[I](s, n),
		LeafRank:    pram.GrabNoClear[I](s, n),
		VertAt:      pram.GrabNoClear[I](s, n),
		P:           p,
		L:           L,
	}

	// flag[v]: v is the right child of a 1-node. A node with no flagged
	// proper ancestor and flagCnt 0 is in the active region.
	flag := pram.GrabNoClear[bool](s, nn)
	s.ParallelForRange(nn, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			pa := b.Parent[v]
			flag[v] = pa >= 0 && b.One[pa] && b.Right[pa] == I(v)
		}
	})
	flagCnt := tour.AncestorFlagCounts(s, flag)

	s.ParallelForRange(nn, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if !b.IsLeaf(u) && b.One[u] && flagCnt[u] == 0 {
				red.Active[u] = true
				v, w := b.Left[u], b.Right[u]
				pv, lw := p[v], L[w]
				if pv > lw { // Case 1
					red.NB[u] = lw
				} else { // Case 2
					red.NB[u] = pv - 1
					red.NI[u] = lw - pv + 1
					red.ND[u] = 2*pv - 2
				}
			}
		}
	})
	dummyBase, totalDummies := par.ScanIx(s, red.ND)
	red.DummyBase, red.TotalDummies = dummyBase, int(totalDummies)

	// Leaf ranks and the rank->vertex map.
	ranks, _ := tour.LeafRanks(s, b.BinTree)
	s.ParallelForRange(nn, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if b.IsLeaf(v) {
				x := b.VertexOf[v]
				red.LeafRank[x] = ranks[v]
				red.VertAt[ranks[v]] = x
			}
		}
	})
	pram.Release(s, ranks)

	// Owner per leaf rank: bundle w of active node u covers ranks
	// [Start[w], Start[w]+L[w]). Scatter end-markers first, then start
	// markers (starts win shared cells), then a "last marker" scan.
	const unset = -2
	markers := pram.GrabNoClear[I](s, n)
	s.ParallelForRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			markers[i] = unset
		}
	})
	s.ParallelForRange(nn, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if red.Active[u] {
				w := b.Right[u]
				if e := int(red.Start[w] + L[w]); e < n {
					markers[e] = -1
				}
			}
		}
	})
	s.ParallelForRange(nn, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if red.Active[u] {
				markers[red.Start[b.Right[u]]] = I(u)
			}
		}
	})
	owners := par.InclusiveScan(s, markers, I(unset), func(a, b I) I {
		if b != unset {
			return b
		}
		return a
	})

	// Classify vertices.
	s.ParallelForRange(n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			r := red.LeafRank[x]
			u := owners[r]
			if u < 0 {
				red.Role[x] = RolePrimary
				red.Owner[x] = -1
				continue
			}
			red.Owner[x] = u
			idx := r - red.Start[b.Right[u]]
			if idx < red.NB[u] {
				red.Role[x] = RoleBridge
				red.RoleIdx[x] = idx
			} else {
				red.Role[x] = RoleInsert
				red.RoleIdx[x] = idx - red.NB[u]
			}
		}
	})

	// Dummy owners.
	if red.TotalDummies > 0 {
		red.DummyOwner = pram.GrabNoClear[I](s, red.TotalDummies)
		downer, doff, _ := par.DistributeIx(s, red.ND)
		s.ParallelForRange(red.TotalDummies, func(lo, hi int) {
			for d := lo; d < hi; d++ {
				red.DummyOwner[d] = downer[d]
			}
		})
		pram.Release(s, downer)
		pram.Release(s, doff)
	}
	pram.Release(s, flag)
	pram.Release(s, flagCnt)
	pram.Release(s, markers)
	pram.Release(s, owners)
	return red
}
