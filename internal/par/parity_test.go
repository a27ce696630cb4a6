package par

import (
	"math/rand/v2"
	"testing"

	"pathcover/internal/pram"
)

// The routing-parity suite: the fused sequential bodies and the int16
// kernels are pure execution-route choices — for any input and any
// simulated processor count they must produce the same values AND the
// same simulated time/work/phase counters as the phase-structured int32
// route. These tests pin that down exactly; the pipeline-level
// bit-parity of the pcbench tables rests on it.

// fusedSim always prefers the fused sequential bodies; refSim never
// does (cutover disabled). Both carry real workers so the pool route is
// what the reference exercises.
func fusedSim(procs int) *pram.Sim {
	return pram.New(procs, pram.WithWorkers(2), pram.WithSeqCutover(1<<30))
}

func refSim(procs int) *pram.Sim {
	return pram.New(procs, pram.WithWorkers(2), pram.WithSeqCutover(-1), pram.WithGrain(64))
}

func statsEq(t *testing.T, what string, n, procs int, a, b pram.Stats) {
	t.Helper()
	if a.Time != b.Time || a.Work != b.Work || a.Phases != b.Phases {
		t.Fatalf("%s n=%d procs=%d: fused stats %+v != reference stats %+v", what, n, procs, a, b)
	}
}

func intsEq[I Ix](t *testing.T, what string, got, want []I) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d want %d", what, i, got[i], want[i])
		}
	}
}

// TestFusedChargeParity drives every fused primitive against the
// phase-structured reference across a grid of sizes and processor
// counts, asserting identical outputs and identical counters.
func TestFusedChargeParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 7))
	for _, n := range []int{1, 2, 3, 7, 64, 65, 1000, 4096, 5000} {
		for _, procs := range []int{2, 7, pram.ProcsFor(max(n, 2)), n + 3} {
			in := make([]int32, n)
			keep := make([]bool, n)
			next := make([]int32, n)
			lens := make([]int32, n/7+1)
			perm := rng.Perm(n)
			for i := range in {
				in[i] = int32(rng.IntN(50))
				keep[i] = rng.IntN(3) == 0
				if i < n-1 {
					next[perm[i]] = int32(perm[i+1])
				}
			}
			if n > 0 {
				next[perm[n-1]] = -1
			}
			for i := range lens {
				lens[i] = int32(rng.IntN(5))
			}

			fu, re := fusedSim(procs), refSim(procs)
			defer fu.Close()
			defer re.Close()

			fo, ft := ScanIx(fu, in)
			ro, rt := ScanIx(re, in)
			if ft != rt {
				t.Fatalf("ScanIx total: %d != %d", ft, rt)
			}
			intsEq(t, "ScanIx", fo, ro)
			statsEq(t, "ScanIx", n, procs, fu.Stats(), re.Stats())

			intsEq(t, "MaxScanIx", MaxScanIx(fu, in), MaxScanIx(re, in))
			statsEq(t, "MaxScanIx", n, procs, fu.Stats(), re.Stats())

			intsEq(t, "InclusiveScanIx", InclusiveScanIx(fu, in), InclusiveScanIx(re, in))
			statsEq(t, "InclusiveScanIx", n, procs, fu.Stats(), re.Stats())

			intsEq(t, "IndexPackIx", IndexPackIx[int32](fu, keep), IndexPackIx[int32](re, keep))
			statsEq(t, "IndexPackIx", n, procs, fu.Stats(), re.Stats())

			fow, fof, _ := DistributeIx(fu, lens)
			row, rof, _ := DistributeIx(re, lens)
			intsEq(t, "DistributeIx owner", fow, row)
			intsEq(t, "DistributeIx offset", fof, rof)
			statsEq(t, "DistributeIx", n, procs, fu.Stats(), re.Stats())

			fd, fl := RankIx(fu, next)
			rd, rl := RankIx(re, next)
			intsEq(t, "RankIx dist", fd, rd)
			intsEq(t, "RankIx last", fl, rl)
			statsEq(t, "RankIx", n, procs, fu.Stats(), re.Stats())
		}
	}
}

// TestFusedChargeParityDataDependent drives the data-dependent fused
// primitives — work-optimal list ranking, Euler tours and their derived
// numberings, bracket matching and tree contraction — against the
// phase-structured reference: identical outputs AND identical simulated
// counters for every input, processor count and width.
func TestFusedChargeParityDataDependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 12))
	for _, n := range []int{65, 66, 100, 257, 1000, 4097} {
		for _, procs := range []int{2, 7, pram.ProcsFor(n), n + 3} {
			next := make([]int32, n)
			open := make([]bool, n)
			perm := rng.Perm(n)
			// A handful of disjoint lists.
			for i := 0; i < n-1; i++ {
				if rng.IntN(50) == 0 {
					next[perm[i]] = -1
				} else {
					next[perm[i]] = int32(perm[i+1])
				}
			}
			next[perm[n-1]] = -1
			for i := range open {
				open[i] = rng.IntN(2) == 0
			}
			forest := randomForest(rng, n)

			fu, re := fusedSim(procs), refSim(procs)
			defer fu.Close()
			defer re.Close()

			fd, fl := RankOptIx(fu, next, 99)
			rd, rl := RankOptIx(re, next, 99)
			intsEq(t, "RankOptIx dist", fd, rd)
			intsEq(t, "RankOptIx last", fl, rl)
			statsEq(t, "RankOptIx", n, procs, fu.Stats(), re.Stats())

			intsEq(t, "MatchBracketsIx", MatchBracketsIx[int32](fu, open), MatchBracketsIx[int32](re, open))
			statsEq(t, "MatchBracketsIx", n, procs, fu.Stats(), re.Stats())

			ft := TourBinaryIx(fu, forest, 7)
			rt := TourBinaryIx(re, forest, 7)
			intsEq(t, "Tour Pos", ft.Pos, rt.Pos)
			intsEq(t, "Tour Seq", ft.Seq, rt.Seq)
			intsEq(t, "Tour Pre", ft.Pre, rt.Pre)
			intsEq(t, "Tour In", ft.In, rt.In)
			intsEq(t, "Tour Post", ft.Post, rt.Post)
			intsEq(t, "Tour InSeq", ft.InSeq, rt.InSeq)
			intsEq(t, "Tour Root", ft.Root, rt.Root)
			intsEq(t, "Tour Roots", ft.Roots, rt.Roots)
			statsEq(t, "TourBinary", n, procs, fu.Stats(), re.Stats())

			fr, fm := ft.LeafRanks(fu, forest)
			rr, rm := rt.LeafRanks(re, forest)
			if fm != rm {
				t.Fatalf("LeafRanks m: %d != %d", fm, rm)
			}
			intsEq(t, "LeafRanks", fr, rr)
			statsEq(t, "LeafRanks", n, procs, fu.Stats(), re.Stats())

			intsEq(t, "LeafStarts", ft.LeafStarts(fu, forest), rt.LeafStarts(re, forest))
			statsEq(t, "LeafStarts", n, procs, fu.Stats(), re.Stats())

			fsz, flv := ft.SubtreeCounts(fu, forest)
			rsz, rlv := rt.SubtreeCounts(re, forest)
			intsEq(t, "SubtreeCounts size", fsz, rsz)
			intsEq(t, "SubtreeCounts leaves", flv, rlv)
			statsEq(t, "SubtreeCounts", n, procs, fu.Stats(), re.Stats())

			intsEq(t, "Depths", ft.Depths(fu), rt.Depths(re))
			statsEq(t, "Depths", n, procs, fu.Stats(), re.Stats())

			flag := make([]bool, n)
			for i := range flag {
				flag[i] = rng.IntN(3) == 0
			}
			intsEq(t, "AncestorFlagCounts", ft.AncestorFlagCounts(fu, flag), rt.AncestorFlagCounts(re, flag))
			statsEq(t, "AncestorFlagCounts", n, procs, fu.Stats(), re.Stats())
		}
	}
}

// TestFusedChargeParityEvalTree pins the fused tree-contraction route
// against the phase-structured one on random full binary expression
// trees.
func TestFusedChargeParityEvalTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 31))
	for _, leavesN := range []int{2, 3, 33, 400, 2048} {
		for _, procs := range []int{2, pram.ProcsFor(2*leavesN - 1)} {
			tree, op, leafVal := randomExprTree(rng, leavesN)
			fu, re := fusedSim(procs), refSim(procs)
			run := func(s *pram.Sim) ([]int64, pram.Stats) {
				tour := TourBinaryIx(s, tree, 3)
				ranks, _ := tour.LeafRanks(s, tree)
				s.Reset() // isolate the contraction's own charges
				vals := EvalTreeIx(s, tree, op, leafVal, ranks)
				st := s.Stats()
				tour.Release(s)
				return vals, st
			}
			fv, fs := run(fu)
			rv, rs := run(re)
			for i := range fv {
				if fv[i] != rv[i] {
					t.Fatalf("leaves=%d procs=%d: val[%d] = %d want %d", leavesN, procs, i, fv[i], rv[i])
				}
			}
			statsEq(t, "EvalTree", leavesN, procs, fs, rs)
			fu.Close()
			re.Close()
		}
	}
}

// randomForest attaches each node to a random earlier node with a free
// child slot, or leaves it a root.
func randomForest(rng *rand.Rand, n int) BinTreeIx[int32] {
	t := NewBinTreeIx[int32](n)
	for v := 1; v < n; v++ {
		p := rng.IntN(v)
		if t.Left[p] < 0 {
			t.Left[p] = int32(v)
		} else if t.Right[p] < 0 {
			t.Right[p] = int32(v)
		} else {
			continue
		}
		t.Parent[v] = int32(p)
	}
	return t
}

// randomExprTree builds a random full binary tree with m leaves plus
// random sum / join-clamp operators and unit-ish leaf values.
func randomExprTree(rng *rand.Rand, m int) (BinTreeIx[int32], []NodeOp, []int64) {
	n := 2*m - 1
	t := NewBinTreeIx[int32](n)
	op := make([]NodeOp, n)
	leafVal := make([]int64, n)
	// Grow by splitting a random current leaf into an internal node with
	// two children until m leaves exist.
	leaves := []int{0}
	next := 1
	for len(leaves) < m {
		k := rng.IntN(len(leaves))
		v := leaves[k]
		l, r := next, next+1
		next += 2
		t.Left[v], t.Right[v] = int32(l), int32(r)
		t.Parent[l], t.Parent[r] = int32(v), int32(v)
		leaves[k] = l
		leaves = append(leaves, r)
	}
	for v := 0; v < n; v++ {
		if t.IsLeaf(v) {
			leafVal[v] = int64(1 + rng.IntN(5))
		} else if rng.IntN(2) == 0 {
			op[v] = NodeOp{Kind: OpSum}
		} else {
			op[v] = NodeOp{Kind: OpJoinClamp, C: int64(rng.IntN(7))}
		}
	}
	return t, op, leafVal
}

// widthInputs draws the shared inputs of the int16-vs-int32 parity
// tests: small values (totals ≤ 9n, inside math.MaxInt16 for every n the
// int16 route serves), bracket flags, and one list threaded through a
// random permutation whose head is returned.
func widthInputs(rng *rand.Rand, n int) (in16 []int16, in32 []int32, open []bool, next16 []int16, next32 []int32, head int) {
	in16, in32 = make([]int16, n), make([]int32, n)
	open = make([]bool, n)
	next16, next32 = make([]int16, n), make([]int32, n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		v := rng.IntN(9)
		in16[i], in32[i] = int16(v), int32(v)
		open[i] = rng.IntN(2) == 0
		if i < n-1 {
			next16[perm[i]], next32[perm[i]] = int16(perm[i+1]), int32(perm[i+1])
		}
	}
	if n > 0 {
		next16[perm[n-1]], next32[perm[n-1]] = -1, -1
		head = perm[0]
	}
	return in16, in32, open, next16, next32, head
}

// widthSims returns an int16 Sim and an int32 Sim of identical shape.
func widthSims(n int) (s16, s32 *pram.Sim) {
	procs := pram.ProcsFor(max(n, 2))
	return pram.New(procs, pram.WithWorkers(2), pram.WithGrain(128)),
		pram.New(procs, pram.WithWorkers(2), pram.WithGrain(128))
}

// widthEq asserts that an int16 result equals the int32 one element by
// element and that the two Sims carry identical simulated counters.
func widthEq(t *testing.T, what string, n int, s16, s32 *pram.Sim, narrow []int16, wide []int32) {
	t.Helper()
	if len(narrow) != len(wide) {
		t.Fatalf("%s n=%d: %d vs %d elements", what, n, len(narrow), len(wide))
	}
	for i := range wide {
		if int32(narrow[i]) != wide[i] {
			t.Fatalf("%s n=%d: [%d] = %d (int16) vs %d (int32)", what, n, i, narrow[i], wide[i])
		}
	}
	a, b := s16.Stats(), s32.Stats()
	if a.Time != b.Time || a.Work != b.Work || a.Phases != b.Phases {
		t.Fatalf("%s n=%d: int16 stats %+v != int32 stats %+v", what, n, a, b)
	}
}

// TestNarrowWideParity runs the int16 scan, compaction, bracket-matching
// and work-optimal list-ranking kernels against the int32 ones:
// identical values and identical simulated counters. Sizes stay inside
// the int16 envelope the pipeline dispatch guarantees
// (n ≤ core.MaxInt16Vertices).
func TestNarrowWideParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, n := range []int{0, 1, 5, 513, 3000} {
		in16, in32, open, next16, next32, _ := widthInputs(rng, n)
		s16, s32 := widthSims(n)
		defer s16.Close()
		defer s32.Close()

		no, nt := ScanIx(s16, in16)
		wo, wt := ScanIx(s32, in32)
		if int32(nt) != wt {
			t.Fatalf("ScanIx total: %d vs %d", nt, wt)
		}
		widthEq(t, "ScanIx", n, s16, s32, no, wo)
		widthEq(t, "MaxScanIx", n, s16, s32, MaxScanIx(s16, in16), MaxScanIx(s32, in32))
		widthEq(t, "IndexPackIx", n, s16, s32, IndexPackIx[int16](s16, open), IndexPackIx[int32](s32, open))
		widthEq(t, "MatchBracketsIx", n, s16, s32, MatchBracketsIx[int16](s16, open), MatchBracketsIx[int32](s32, open))
		nd, nl := RankOptIx(s16, next16, 42)
		wd, wl := RankOptIx(s32, next32, 42)
		widthEq(t, "RankOptIx dist", n, s16, s32, nd, wd)
		widthEq(t, "RankOptIx last", n, s16, s32, nl, wl)
	}
}

// TestInt16WideParity covers the remaining index kernels — inclusive
// scan, segment distribution, Wyllie ranking and single-list positions —
// at int16 against int32, with the same envelope and assertions as
// TestNarrowWideParity.
func TestInt16WideParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 4))
	for _, n := range []int{0, 1, 5, 513, 3000} {
		in16, in32, _, next16, next32, head := widthInputs(rng, n)
		s16, s32 := widthSims(n)
		defer s16.Close()
		defer s32.Close()

		widthEq(t, "InclusiveScanIx", n, s16, s32, InclusiveScanIx(s16, in16), InclusiveScanIx(s32, in32))
		no, nf, nt := DistributeIx(s16, in16)
		wo, wf, wt := DistributeIx(s32, in32)
		if nt != wt {
			t.Fatalf("DistributeIx total: %d vs %d", nt, wt)
		}
		widthEq(t, "DistributeIx owner", n, s16, s32, no, wo)
		widthEq(t, "DistributeIx offset", n, s16, s32, nf, wf)
		nd, nl := RankIx(s16, next16)
		wd, wl := RankIx(s32, next32)
		widthEq(t, "RankIx dist", n, s16, s32, nd, wd)
		widthEq(t, "RankIx last", n, s16, s32, nl, wl)
		if n == 0 {
			continue
		}
		np, nlen := ListPositionsIx(s16, next16, int16(head), 42)
		wp, wlen := ListPositionsIx(s32, next32, int32(head), 42)
		if int32(nlen) != wlen {
			t.Fatalf("ListPositionsIx length: %d vs %d", nlen, wlen)
		}
		widthEq(t, "ListPositionsIx", n, s16, s32, np, wp)
	}
}

// TestTourNarrowWideParity compares the full Euler-tour numberings of a
// random forest at int16 and int32.
func TestTourNarrowWideParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.IntN(600)
		// Random binary forest: attach each node to an earlier node with a
		// free child slot (or leave it a root).
		wide := NewBinTreeIx[int32](n)
		tiny := NewBinTreeIx[int16](n)
		for v := 1; v < n; v++ {
			p := rng.IntN(v)
			if wide.Left[p] < 0 {
				wide.Left[p], tiny.Left[p] = int32(v), int16(v)
			} else if wide.Right[p] < 0 {
				wide.Right[p], tiny.Right[p] = int32(v), int16(v)
			} else {
				continue // stays a root
			}
			wide.Parent[v], tiny.Parent[v] = int32(p), int16(p)
		}
		sh, sw := widthSims(n)
		th := TourBinaryIx(sh, tiny, 99)
		tw := TourBinaryIx(sw, wide, 99)
		widthEq(t, "Tour Pos", n, sh, sw, th.Pos, tw.Pos)
		widthEq(t, "Tour Seq", n, sh, sw, th.Seq, tw.Seq)
		widthEq(t, "Tour Pre", n, sh, sw, th.Pre, tw.Pre)
		widthEq(t, "Tour In", n, sh, sw, th.In, tw.In)
		widthEq(t, "Tour Post", n, sh, sw, th.Post, tw.Post)
		widthEq(t, "Tour InSeq", n, sh, sw, th.InSeq, tw.InSeq)
		widthEq(t, "Tour Root", n, sh, sw, th.Root, tw.Root)
		widthEq(t, "Tour Roots", n, sh, sw, th.Roots, tw.Roots)
		sw.Close()
		sh.Close()
	}
}
