// Package canon computes the canonical form of a cotree: a
// representative that is identical for every cotree of the same graph
// up to vertex relabelling, together with a 128-bit content hash and
// the vertex permutation between the input's numbering and the
// canonical one.
//
// The cotree of a cograph is unique up to the order of children
// (property (6) of the paper's §1), so canonicalization is exactly a
// deterministic child ordering: children are sorted by a key of their
// subtree computed bottom-up. Two relabelled or rewritten cotrees of
// the same graph collapse to one canonical representative; distinct
// graphs never share one (the representative *is* the cotree, which
// determines the graph).
//
// Canonicalize orders children by a 128-bit subtree hash — O(n log n)
// overall, stack-free (caterpillar cotrees reach depth Θ(n)), and
// collision-safe in practice (a pair of distinct subtrees colliding on
// all 128 bits is ~2^-64 per cache lifetime). Encode produces the
// exact canonical text form with children ordered by full string
// comparison — hash-free ground truth for tests, at worst-case
// quadratic output size, so it is for small inputs only.
package canon

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"pathcover/internal/cotree"
)

// Hash is a 128-bit content hash of a canonical cotree. Equal graphs
// (up to vertex relabelling) always hash equal; distinct graphs hash
// distinct up to astronomically unlikely collisions.
type Hash struct {
	Hi, Lo uint64
}

// String renders the hash as 32 hex digits.
func (h Hash) String() string { return fmt.Sprintf("%016x%016x", h.Hi, h.Lo) }

// Less orders hashes lexicographically (Hi, then Lo).
func (h Hash) Less(o Hash) bool {
	if h.Hi != o.Hi {
		return h.Hi < o.Hi
	}
	return h.Lo < o.Lo
}

// Fold64 compresses the 128-bit hash to a single well-mixed 64-bit
// word, for consumers that key on uint64 — a consistent-hash ring
// placing graphs by canonical identity, most notably. Both halves feed
// the fold, so graphs differing in either lane land differently.
func (h Hash) Fold64() uint64 {
	return mix(mix(h.Hi, h.Lo*mulC+1), h.Hi^bits.RotateLeft64(h.Lo, 17))
}

// Form is the canonical identity of a cotree: its hash plus the vertex
// permutation between the input numbering and the canonical numbering
// (vertices numbered 0..n-1 in depth-first order of the canonically
// sorted tree). A path cover expressed in canonical numbering is valid
// for every graph of this form; remap it through FromCanon to answer
// in a particular requester's numbering.
type Form struct {
	Hash Hash
	// ToCanon maps an input vertex id to its canonical id.
	ToCanon []int32
	// FromCanon maps a canonical vertex id back to the input id.
	FromCanon []int32
}

// N returns the vertex count.
func (f *Form) N() int { return len(f.ToCanon) }

// Hash-mixing constants (splitmix64 / xxhash lineage).
const (
	mulA = 0x9e3779b97f4a7c15
	mulB = 0xbf58476d1ce4e5b9
	mulC = 0x94d049bb133111eb
)

// mix folds x into h with strong diffusion. Sequential folds over a
// canonically ordered child list give an order-sensitive combine, which
// is what we want: the order is itself canonical.
func mix(h, x uint64) uint64 {
	h ^= x * mulA
	h = bits.RotateLeft64(h, 31) * mulB
	h ^= h >> 29
	return h
}

// Subtree-hash initial values per node kind. The two lanes use
// different IVs and fold children with different multipliers, so a
// collision must hold in two decorrelated 64-bit digests at once.
const (
	ivLeafHi = 0x8f14a5c3d2e1b007
	ivLeafLo = 0x51ed2701fa35c94d
	iv0Hi    = 0xc3a5c85c97cb3127
	iv0Lo    = 0xb492b66fbe98f273
	iv1Hi    = 0x9ae16a3b2f90404f
	iv1Lo    = 0xe7037ed1a0b428db
)

// Parse reads a cotree from the text format and computes its canonical
// form in the same scan: the fold below runs at each node's close
// inside cotree.ParseFold, so a parsed graph's identity costs no second
// pass over the tree. An input with more than maxVertices leaves is
// rejected with a *cotree.SizeError before the tree is allocated. The
// form is the one Canonicalize returns for the parsed tree.
func Parse(src string, maxVertices int) (*cotree.Tree, *Form, error) {
	var f fold
	t, err := cotree.ParseFold(src, maxVertices, &f)
	if err != nil {
		return nil, nil, err
	}
	return t, f.form(t), nil
}

// Canonicalize computes the canonical form of t: it drives the same
// per-node fold Parse runs, in post-order (Tree.PostOrder), so
// trees built without the parser (closure operations, recognition)
// hash exactly as their text form would. The input is not modified.
// O(n log n) time, O(n) memory, no recursion.
func Canonicalize(t *cotree.Tree) *Form {
	var f fold
	f.Begin(t.NumNodes())
	for _, u := range t.PostOrder() {
		f.Close(t, u)
	}
	return f.form(t)
}

// fold is the one definition of the canonical hash: a cotree.Folder
// that, as each node closes, sorts its children by subtree digest and
// mixes their digests into its own. The canonical numbering is then
// read off top-down by form.
type fold struct {
	hi, lo []uint64 // per node: subtree digest lanes
	leaves []int32  // per node: leaf count (form reuses it for offsets)
	order  []int32  // nodes in close order
	kids   []int32  // per internal node in close order: children, sorted
}

// Begin sizes the fold's arrays for nodes nodes, in two allocations.
func (f *fold) Begin(nodes int) {
	dig := make([]uint64, 2*nodes)
	f.hi, f.lo = dig[:nodes:nodes], dig[nodes:]
	ix := make([]int32, 3*nodes)
	f.leaves = ix[:nodes:nodes]
	f.order = ix[nodes : nodes : 2*nodes]
	f.kids = ix[2*nodes : 2*nodes]
}

// Close folds node u, whose children have all been folded.
func (f *fold) Close(t *cotree.Tree, u int) {
	f.order = append(f.order, int32(u))
	if t.Label[u] == cotree.LabelLeaf {
		f.hi[u], f.lo[u], f.leaves[u] = ivLeafHi, ivLeafLo, 1
		return
	}
	s := len(f.kids)
	for _, c := range t.Children[u] {
		f.kids = append(f.kids, int32(c))
	}
	seg := f.kids[s:]
	hi, lo := f.hi, f.lo
	// Siblings with equal digests (isomorphic subtrees) stay in the
	// order the sort leaves them; TestParseGolden pins the resulting
	// numbering, which cached covers are stored in.
	slices.SortFunc(seg, func(x, y int32) int {
		if hi[x] != hi[y] {
			return cmp.Compare(hi[x], hi[y])
		}
		return cmp.Compare(lo[x], lo[y])
	})
	var h, l uint64
	if t.Label[u] == cotree.Label0 {
		h, l = iv0Hi, iv0Lo
	} else {
		h, l = iv1Hi, iv1Lo
	}
	var cnt int32
	for _, c := range seg {
		h = mix(h, hi[c])
		l = mix(l, lo[c]*mulC+1)
		cnt += f.leaves[c]
	}
	f.leaves[u] = cnt
	hi[u] = mix(h, uint64(cnt))
	lo[u] = mix(l, uint64(cnt)*mulB+uint64(len(seg)))
}

// form finishes the fold of the whole tree t: the root digest gives the
// hash, and the canonical numbering (leaves in depth-first order of the
// sorted tree) comes from one top-down pass in reverse close order,
// where every parent precedes its children. A leaf's canonical id is
// its subtree's offset: the parent's offset plus the leaf counts of the
// siblings sorted before it.
func (f *fold) form(t *cotree.Tree) *Form {
	nv := t.NumVertices()
	root := t.Root
	ids := make([]int32, 2*nv)
	out := &Form{
		Hash: Hash{
			Hi: mix(f.hi[root], uint64(nv)*mulA),
			Lo: mix(f.lo[root], uint64(nv)*mulC),
		},
		ToCanon:   ids[:nv:nv],
		FromCanon: ids[nv:],
	}
	off := f.leaves // off[c] replaces leaves[c] once c's parent has read it
	off[root] = 0
	end := len(f.kids)
	for k := len(f.order) - 1; k >= 0; k-- {
		u := f.order[k]
		if t.Label[u] == cotree.LabelLeaf {
			v := int32(t.VertexOf[u])
			out.ToCanon[v] = off[u]
			out.FromCanon[off[u]] = v
			continue
		}
		seg := f.kids[end-len(t.Children[u]) : end]
		end -= len(seg)
		next := off[u]
		for _, c := range seg {
			next, off[c] = next+off[c], next
		}
	}
	return out
}

// Encode returns the canonical text form of t's structure: leaves
// render as "*" (vertex identity is immaterial to the form) and every
// internal node's children are sorted by their full encoded string.
// Two cotrees encode equal iff they represent the same graph up to
// vertex relabelling. Exact but worst-case quadratic in output size —
// use for tests and small graphs; Canonicalize is the serving path.
func Encode(t *cotree.Tree) string {
	var enc func(u int) string
	enc = func(u int) string {
		if t.Label[u] == cotree.LabelLeaf {
			return "*"
		}
		parts := make([]string, len(t.Children[u]))
		for i, c := range t.Children[u] {
			parts[i] = enc(c)
		}
		sort.Strings(parts)
		return fmt.Sprintf("(%d %s)", t.Label[u], strings.Join(parts, " "))
	}
	return enc(t.Root)
}

// HashEdges is a content hash for raw (non-cograph) graphs: the edge
// set is normalized (undirected, sorted) and folded with n. Identical
// inputs hash equal; unlike Canonicalize this is NOT invariant under
// vertex relabelling — raw graphs have no cheap canonical form — so it
// identifies duplicate requests, not isomorphic ones.
func HashEdges(n int, edges [][2]int) Hash {
	norm := make([][2]int, len(edges))
	for i, e := range edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		norm[i] = [2]int{a, b}
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i][0] != norm[j][0] {
			return norm[i][0] < norm[j][0]
		}
		return norm[i][1] < norm[j][1]
	})
	h, l := uint64(0x27d4eb2f165667c5), uint64(0x85ebca77c2b2ae63)
	h = mix(h, uint64(n))
	l = mix(l, uint64(n)*mulB+1)
	for i, e := range norm {
		if i > 0 && e == norm[i-1] {
			continue // duplicate edges do not change the graph
		}
		x := uint64(e[0])<<32 | uint64(uint32(e[1]))
		h = mix(h, x)
		l = mix(l, x*mulC+7)
	}
	return Hash{Hi: h, Lo: l}
}
