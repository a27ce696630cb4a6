// Package par implements the parallel primitives the path-cover algorithm
// of Nakano–Olariu–Zomaya is built from: prefix sums, stream compaction,
// list ranking, Euler tours with tree numberings, parallel bracket
// matching, and binary tree contraction with all-node expression
// evaluation. These are the tools of Lemmas 5.1 and 5.2 of the paper.
//
// Every primitive is written once against the pram.Sim cost model: a phase
// of n constant-time operations costs ceil(n/p) simulated time and n
// simulated work. With p = n/log n processors each primitive meets the
// paper's O(log n)-time, O(n)-work bounds (list ranking in its randomized
// work-optimal variant), and the counters of the Sim make those bounds
// measurable.
//
// The index-carrying primitives (the *Ix forms) are generic over the
// element width (the Ix constraint): int16 for the serving size class
// and int32 otherwise, so every phase moves a quarter or half of the
// bytes a machine word would. See Ix for the width rule; the simulated
// cost accounting is identical in both widths.
//
// Buffers come from the Sim's scratch arena (pram.Grab): a primitive
// releases its internal temporaries before returning and hands its
// results to the caller, who may pass them back to pram.Release once
// consumed. The hot-path primitives (the scans, compaction, the list
// rankers, MatchBracketsIx) additionally keep their phase bodies in
// reusable per-Sim state, so in steady state they allocate nothing.
// Below the Sim's sequential cutover (pram.Sim.PreferSequential) the
// data-independent primitives run a fused single-pass body on the
// calling goroutine — no wake/dispatch/join, one stream over the data —
// while replaying the exact charge sequence of the phase-structured
// route, so the simulated counters cannot tell the routes apart.
package par

import "pathcover/internal/pram"

// Scan computes the exclusive prefix combination of in under the
// associative operation op with identity id: out[i] = op(in[0], ...,
// in[i-1]) (out[0] = id). It also returns the total combination of all
// elements.
//
// The implementation is the textbook work-optimal EREW scan: each
// simulated processor reduces a contiguous block, the p block sums are
// scanned by recursive doubling (up-sweep/down-sweep, O(log p) phases),
// and each block is swept once more to apply its offset. With p = n/log n
// this is O(log n) time and O(n) work.
func Scan[T any](s *pram.Sim, in []T, id T, op func(a, b T) T) (out []T, total T) {
	n := len(in)
	out = pram.GrabNoClear[T](s, n)
	if n == 0 {
		return out, id
	}
	nb := s.NumBlocks(n)
	if nb == 1 {
		s.Sequential(n, func() {
			acc := id
			for i := 0; i < n; i++ {
				out[i] = acc
				acc = op(acc, in[i])
			}
			total = acc
		})
		return out, total
	}
	if s.PreferSequential(n) {
		// Fused sequential route: one pass instead of two block sweeps
		// plus the scan tree; identical output, identical charges.
		acc := id
		for i := 0; i < n; i++ {
			out[i] = acc
			acc = op(acc, in[i])
		}
		total = acc
		chargeScan(s, n, false)
		return out, total
	}

	// Per-block reduction.
	sums := pram.GrabNoClear[T](s, nb)
	s.Blocks(n, func(b, lo, hi int) {
		acc := id
		for i := lo; i < hi; i++ {
			acc = op(acc, in[i])
		}
		sums[b] = acc
	})

	// Exclusive scan of the nb block sums by up-sweep/down-sweep over a
	// power-of-two padded tree.
	m := 1
	for m < nb {
		m <<= 1
	}
	tree := pram.GrabNoClear[T](s, 2*m)
	s.ParallelForRange(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i < nb {
				tree[m+i] = sums[i]
			} else {
				tree[m+i] = id
			}
		}
	})
	for w := m / 2; w >= 1; w /= 2 {
		w := w
		s.ParallelForRange(w, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := w + i
				tree[v] = op(tree[2*v], tree[2*v+1])
			}
		})
	}
	total = tree[1]
	// Down-sweep: pref[v] = combination of everything left of subtree v.
	pref := pram.GrabNoClear[T](s, 2*m)
	pref[1] = id
	for w := 1; w < m; w *= 2 {
		w := w
		s.ParallelForRange(w, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := w + i
				pref[2*v] = pref[v]
				pref[2*v+1] = op(pref[v], tree[2*v])
			}
		})
	}

	// Apply block offsets.
	s.Blocks(n, func(b, lo, hi int) {
		acc := pref[m+b]
		for i := lo; i < hi; i++ {
			out[i] = acc
			acc = op(acc, in[i])
		}
	})
	pram.Release(s, sums)
	pram.Release(s, tree)
	pram.Release(s, pref)
	return out, total
}

// InclusiveScan computes out[i] = op(in[0], ..., in[i]).
func InclusiveScan[T any](s *pram.Sim, in []T, id T, op func(a, b T) T) []T {
	ex, _ := Scan(s, in, id, op)
	out := pram.GrabNoClear[T](s, len(in))
	s.ParallelForRange(len(in), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = op(ex[i], in[i])
		}
	})
	pram.Release(s, ex)
	return out
}

// Reduce combines all elements of in under op starting from id.
func Reduce[T any](s *pram.Sim, in []T, id T, op func(a, b T) T) T {
	out, total := Scan(s, in, id, op)
	pram.Release(s, out)
	return total
}

// ScanIx is Scan specialised to integer sums. In steady state it
// allocates nothing: the phase bodies live in per-Sim state and every
// buffer but the returned one is recycled through the arena.
func ScanIx[I Ix](s *pram.Sim, in []I) (out []I, total I) {
	return ixScanRun(s, in, intOpSum, false)
}

// InclusiveScanIx computes the inclusive prefix sum of in. Like ScanIx
// it is allocation-free in steady state; the simulated cost is
// identical to InclusiveScan over the same elements.
func InclusiveScanIx[I Ix](s *pram.Sim, in []I) []I {
	out, _ := ixScanRun(s, in, intOpSum, true)
	return out
}

// MaxScanIx computes the inclusive prefix maximum of in. It is the
// standard "segmented broadcast" building block: scatter values at
// segment heads, then a prefix max carries each head's value across its
// segment.
func MaxScanIx[I Ix](s *pram.Sim, in []I) []I {
	out, _ := ixScanRun(s, in, intOpMax, true)
	return out
}

// intScanOp selects the combining operator of the specialised integer
// scans.
type intScanOp uint8

const (
	intOpSum intScanOp = iota
	intOpMax
)

// ixScan is the reusable state of the specialised integer scans: one
// instance per (Sim, width), cached in the scratch registry, whose two
// phase bodies (created once) dispatch on the phase field. This keeps
// the steady-state scan free of the per-phase closure allocations the
// generic Scan pays.
type ixScan[I Ix] struct {
	in, out          []I
	sums, tree, pref []I
	nb, m, lvl       int
	op               intScanOp
	incl             bool
	id               I
	phase            int
	body             func(lo, hi int)
	blockBody        func(b, lo, hi int)
}

const (
	scanPhaseLeaves = iota
	scanPhaseUp
	scanPhaseDown
	scanBlockReduce
	scanBlockApply
)

type ixScanKey[I Ix] struct{}

func ixScanOf[I Ix](s *pram.Sim) *ixScan[I] {
	sc := s.Scratch()
	if v := sc.Aux(ixScanKey[I]{}); v != nil {
		return v.(*ixScan[I])
	}
	st := &ixScan[I]{}
	st.body = st.run
	st.blockBody = st.runBlock
	sc.SetAux(ixScanKey[I]{}, st)
	return st
}

func (st *ixScan[I]) comb(a, b I) I {
	if st.op == intOpSum {
		return a + b
	}
	if a > b {
		return a
	}
	return b
}

func (st *ixScan[I]) run(lo, hi int) {
	switch st.phase {
	case scanPhaseLeaves:
		for i := lo; i < hi; i++ {
			if i < st.nb {
				st.tree[st.m+i] = st.sums[i]
			} else {
				st.tree[st.m+i] = st.id
			}
		}
	case scanPhaseUp:
		tree := st.tree
		for i := lo; i < hi; i++ {
			v := st.lvl + i
			tree[v] = st.comb(tree[2*v], tree[2*v+1])
		}
	case scanPhaseDown:
		tree, pref := st.tree, st.pref
		for i := lo; i < hi; i++ {
			v := st.lvl + i
			pref[2*v] = pref[v]
			pref[2*v+1] = st.comb(pref[v], tree[2*v])
		}
	}
}

func (st *ixScan[I]) runBlock(b, lo, hi int) {
	switch st.phase {
	case scanBlockReduce:
		acc := st.id
		if st.op == intOpSum {
			for i := lo; i < hi; i++ {
				acc += st.in[i]
			}
		} else {
			for i := lo; i < hi; i++ {
				if v := st.in[i]; v > acc {
					acc = v
				}
			}
		}
		st.sums[b] = acc
	case scanBlockApply:
		acc := st.pref[st.m+b]
		in, out := st.in, st.out
		if st.incl {
			for i := lo; i < hi; i++ {
				acc = st.comb(acc, in[i])
				out[i] = acc
			}
		} else {
			for i := lo; i < hi; i++ {
				out[i] = acc
				acc = st.comb(acc, in[i])
			}
		}
	}
}

// scanSeq is the fused single-pass body shared by the nb==1 and
// cutover routes.
func scanSeq[I Ix](in, out []I, op intScanOp, incl bool, id I) (total I) {
	acc := id
	if op == intOpSum {
		if incl {
			for i, v := range in {
				acc += v
				out[i] = acc
			}
		} else {
			for i, v := range in {
				out[i] = acc
				acc += v
			}
		}
	} else {
		for i, v := range in {
			if v > acc {
				acc = v
			}
			out[i] = acc // max scans are always inclusive here
		}
	}
	return acc
}

// chargeScan replays the exact charge sequence of ixScanRun for an
// n-element scan on s — the same phases, time and work whichever route
// executes — so fused callers stay bit-identical on the simulated
// counters. It must mirror ixScanRun (and the un-specialised Scan)
// charge for charge.
func chargeScan(s *pram.Sim, n int, incl bool) {
	if n <= 0 {
		return
	}
	p := s.Procs()
	nb := s.NumBlocks(n)
	if nb == 1 {
		s.Charge(int64(n), int64(n)) // the Sequential(n, ...) route
		if incl {
			s.Charge(int64(ceilDivInt(n, p)), int64(n))
		}
		return
	}
	m := 1
	for m < nb {
		m <<= 1
	}
	s.Charge(int64(ceilDivInt(n, p)), int64(n)) // block reduce
	s.Charge(int64(ceilDivInt(m, p)), int64(m)) // tree leaves
	for w := m / 2; w >= 1; w /= 2 {            // up-sweep
		s.Charge(int64(ceilDivInt(w, p)), int64(w))
	}
	for w := 1; w < m; w *= 2 { // down-sweep
		s.Charge(int64(ceilDivInt(w, p)), int64(w))
	}
	s.Charge(int64(ceilDivInt(n, p)), int64(n)) // block apply
	if incl {
		s.Charge(int64(ceilDivInt(n, p)), int64(n)) // fused inclusive pass
	}
}

// ixScanRun is the shared engine of the specialised scans. The
// inclusive variant fuses the op(ex[i], in[i]) pass of InclusiveScan
// into the final block sweep and charges that phase explicitly, keeping
// the simulated cost identical to the unfused composition.
func ixScanRun[I Ix](s *pram.Sim, in []I, op intScanOp, incl bool) (out []I, total I) {
	n := len(in)
	out = pram.GrabNoClear[I](s, n)
	var id I
	if op == intOpMax {
		id = MinIx[I]()
	}
	total = id
	if n == 0 {
		return out, total
	}
	nb := s.NumBlocks(n)
	if nb == 1 {
		s.Sequential(n, func() { total = scanSeq(in, out, op, incl, id) })
		if incl {
			s.Charge(int64(ceilDivInt(n, s.Procs())), int64(n))
		}
		return out, total
	}
	if s.PreferSequential(n) {
		total = scanSeq(in, out, op, incl, id)
		chargeScan(s, n, incl)
		return out, total
	}

	st := ixScanOf[I](s)
	st.in, st.out, st.op, st.incl, st.id = in, out, op, incl, id
	st.nb = nb
	m := 1
	for m < nb {
		m <<= 1
	}
	st.m = m
	st.sums = pram.GrabNoClear[I](s, nb)
	st.tree = pram.GrabNoClear[I](s, 2*m)
	st.pref = pram.GrabNoClear[I](s, 2*m)

	st.phase = scanBlockReduce
	s.Blocks(n, st.blockBody)
	st.phase = scanPhaseLeaves
	s.ParallelForRange(m, st.body)
	st.phase = scanPhaseUp
	for w := m / 2; w >= 1; w /= 2 {
		st.lvl = w
		s.ParallelForRange(w, st.body)
	}
	total = st.tree[1]
	st.pref[1] = id
	st.phase = scanPhaseDown
	for w := 1; w < m; w *= 2 {
		st.lvl = w
		s.ParallelForRange(w, st.body)
	}
	st.phase = scanBlockApply
	s.Blocks(n, st.blockBody)
	if incl {
		// The fused inclusive application replaces the separate
		// out[i] = op(ex[i], in[i]) phase of InclusiveScan; charge it so
		// the simulated cost stays identical.
		s.Charge(int64(ceilDivInt(n, s.Procs())), int64(n))
	}

	pram.Release(s, st.sums)
	pram.Release(s, st.tree)
	pram.Release(s, st.pref)
	st.in, st.out, st.sums, st.tree, st.pref = nil, nil, nil, nil, nil
	return out, total
}

// ceilDivInt returns ceil(a/b) for positive b.
func ceilDivInt(a, b int) int { return (a + b - 1) / b }
