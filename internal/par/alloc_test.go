package par

import (
	"math/rand/v2"
	"testing"

	"pathcover/internal/pram"
)

// The allocation-regression suite: with a reused Sim (pool + arena), the
// hot-path primitives must run allocation-free in steady state — the
// tentpole claim of the persistent-executor rewrite. Each test warms the
// arena with one run, then measures, releasing results each iteration
// exactly as the pipeline does.

func allocSim() *pram.Sim {
	// Multi-worker so the persistent pool (not just the inline path) is
	// what gets measured.
	return pram.New(pram.ProcsFor(1<<15), pram.WithWorkers(2), pram.WithGrain(1024))
}

// allocFree fails t unless runs, executed back to back, allocate at
// most perRun objects each per iteration in steady state (after one
// warm-up pass).
func allocFree(t *testing.T, what string, iters int, perRun float64, runs ...func()) {
	t.Helper()
	all := func() {
		for _, r := range runs {
			r()
		}
	}
	all() // warm the arena and cached phase bodies
	budget := perRun * float64(len(runs))
	if allocs := testing.AllocsPerRun(iters, all); allocs > budget {
		t.Errorf("%s allocates %.1f objects/op in steady state, want <= %.0f", what, allocs, budget)
	}
}

// The un-suffixed pooled tests alternate the int16 and int32 kernels on
// one Sim at a serving size both widths hold, the regime of a shard that
// serves mixed request sizes: each width keeps its own per-Sim cached
// state and size-classed freelists, and neither may evict or reallocate
// the other's.

func scanRun[I Ix](s *pram.Sim, n int) func() {
	in := make([]I, n)
	for i := range in {
		in[i] = I(i % 7)
	}
	return func() {
		out, _ := ScanIx(s, in)
		pram.Release(s, out)
	}
}

func maxScanRun[I Ix](s *pram.Sim, n int) func() {
	in := make([]I, n)
	for i := range in {
		in[i] = I((i * 31) % 1000)
	}
	return func() { pram.Release(s, MaxScanIx(s, in)) }
}

func rankOptRun[I Ix](s *pram.Sim, n int) func() {
	next := make([]I, n)
	for i := 0; i < n-1; i++ {
		next[i] = I(i + 1)
	}
	next[n-1] = -1
	return func() {
		dist, last := RankOptIx(s, next, 12345)
		pram.Release(s, dist)
		pram.Release(s, last)
	}
}

func bracketsRun[I Ix](s *pram.Sim, n int) func() {
	rng := rand.New(rand.NewPCG(9, 9))
	open := make([]bool, n)
	for i := range open {
		open[i] = rng.IntN(2) == 0
	}
	return func() { pram.Release(s, MatchBracketsIx[I](s, open)) }
}

func TestScanIntAllocFree(t *testing.T) {
	s := int16AllocSim()
	defer s.Close()
	allocFree(t, "ScanIx int16+int32", 20, 2, scanRun[int16](s, 3270), scanRun[int32](s, 3270))
}

func TestMaxScanIntAllocFree(t *testing.T) {
	s := int16AllocSim()
	defer s.Close()
	allocFree(t, "MaxScanIx int16+int32", 20, 2, maxScanRun[int16](s, 3270), maxScanRun[int32](s, 3270))
}

func TestRankOptAllocFree(t *testing.T) {
	s := int16AllocSim()
	defer s.Close()
	allocFree(t, "RankOptIx int16+int32", 10, 2, rankOptRun[int16](s, 3270), rankOptRun[int32](s, 3270))
}

func TestMatchBracketsAllocFree(t *testing.T) {
	s := int16AllocSim()
	defer s.Close()
	allocFree(t, "MatchBracketsIx int16+int32", 10, 2, bracketsRun[int16](s, 3270), bracketsRun[int32](s, 3270))
}

// The int32 kernels on the pooled route at a size past the int16
// envelope.

func TestScanIxNarrowAllocFree(t *testing.T) {
	s := allocSim()
	defer s.Close()
	allocFree(t, "ScanIx[int32]", 20, 2, scanRun[int32](s, 1<<15))
}

func TestMaxScanIxNarrowAllocFree(t *testing.T) {
	s := allocSim()
	defer s.Close()
	allocFree(t, "MaxScanIx[int32]", 20, 2, maxScanRun[int32](s, 1<<15))
}

func TestRankOptIxNarrowAllocFree(t *testing.T) {
	s := allocSim()
	defer s.Close()
	allocFree(t, "RankOptIx[int32]", 10, 2, rankOptRun[int32](s, 1<<15))
}

func TestMatchBracketsIxNarrowAllocFree(t *testing.T) {
	s := allocSim()
	defer s.Close()
	allocFree(t, "MatchBracketsIx[int32]", 10, 2, bracketsRun[int32](s, 1<<15))
}

// TestFusedPrimitivesAllocFree holds the fused sequential bodies (the
// small-n cutover route) to the same bar.
func TestFusedPrimitivesAllocFree(t *testing.T) {
	s := pram.New(pram.ProcsFor(1<<15), pram.WithWorkers(2), pram.WithSeqCutover(1<<30))
	defer s.Close()
	n := 1 << 13
	in := make([]int32, n)
	keep := make([]bool, n)
	next := make([]int32, n)
	for i := range in {
		in[i] = int32(i % 5)
		keep[i] = i%3 == 0
		next[i] = int32(i + 1)
	}
	next[n-1] = -1
	run := func() {
		out, _ := ScanIx(s, in)
		pram.Release(s, out)
		pram.Release(s, IndexPackIx[int32](s, keep))
		dist, last := RankWeightedIx(s, next, nil)
		pram.Release(s, dist)
		pram.Release(s, last)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 2 {
		t.Errorf("fused primitives allocate %.1f objects/op in steady state, want <= 2", allocs)
	}
}

// The fused data-dependent bodies (the charge-replay engines for
// RankOptIx, the Euler tour and its numberings, bracket matching and
// tree contraction) are held to the same steady-state zero-allocation bar
// as the data-independent ones, in each index width and with both widths
// alternating on one Sim (the un-suffixed tests). fusedDataSim forces
// the fused routes everywhere.
func fusedDataSim() *pram.Sim {
	return pram.New(pram.ProcsFor(1<<14), pram.WithWorkers(2), pram.WithSeqCutover(1<<30))
}

func fusedRankOptRun[I Ix](s *pram.Sim) func() {
	n := 1 << 14
	next := make([]I, n)
	rng := rand.New(rand.NewPCG(2, 4))
	perm := rng.Perm(n)
	for i := 0; i < n-1; i++ {
		next[perm[i]] = I(perm[i+1])
	}
	next[perm[n-1]] = -1
	return func() {
		dist, last := RankOptIx(s, next, 77)
		pram.Release(s, dist)
		pram.Release(s, last)
	}
}

func fusedAlloc(t *testing.T, what string, perRun float64, runs ...func(*pram.Sim) func()) {
	t.Helper()
	s := fusedDataSim()
	defer s.Close()
	bound := make([]func(), len(runs))
	for i, r := range runs {
		bound[i] = r(s)
	}
	allocFree(t, "fused "+what, 10, perRun, bound...)
}

func TestFusedRankOptAllocFree(t *testing.T) {
	fusedAlloc(t, "RankOptIx int16+int32", 2, fusedRankOptRun[int16], fusedRankOptRun[int32])
}
func TestFusedRankOptNarrowAllocFree(t *testing.T) {
	fusedAlloc(t, "RankOptIx[int32]", 2, fusedRankOptRun[int32])
}
func TestFusedRankOptInt16AllocFree(t *testing.T) {
	fusedAlloc(t, "RankOptIx[int16]", 2, fusedRankOptRun[int16])
}

func fusedTourRun[I Ix](s *pram.Sim) func() {
	n := 1 << 13
	rng := rand.New(rand.NewPCG(3, 5))
	tree := NewBinTreeIx[I](n)
	for v := 1; v < n; v++ {
		p := rng.IntN(v)
		if tree.Left[p] < 0 {
			tree.Left[p] = I(v)
		} else if tree.Right[p] < 0 {
			tree.Right[p] = I(v)
		} else {
			continue
		}
		tree.Parent[v] = I(p)
	}
	return func() {
		tour := TourBinaryIx(s, tree, 5)
		ranks, _ := tour.LeafRanks(s, tree)
		pram.Release(s, ranks)
		size, leaves := tour.SubtreeCounts(s, tree)
		pram.Release(s, size)
		pram.Release(s, leaves)
		tour.Release(s)
	}
}

// One *TourIx header escapes per build; everything else must recycle.
func TestFusedTourAllocFree(t *testing.T) {
	fusedAlloc(t, "TourBinaryIx+numberings int16+int32", 3, fusedTourRun[int16], fusedTourRun[int32])
}
func TestFusedTourNarrowAllocFree(t *testing.T) {
	fusedAlloc(t, "TourBinaryIx+numberings[int32]", 3, fusedTourRun[int32])
}
func TestFusedTourInt16AllocFree(t *testing.T) {
	fusedAlloc(t, "TourBinaryIx+numberings[int16]", 3, fusedTourRun[int16])
}

func fusedBracketsRun[I Ix](s *pram.Sim) func() { return bracketsRun[I](s, 1<<14) }

func TestFusedMatchBracketsAllocFree(t *testing.T) {
	fusedAlloc(t, "MatchBracketsIx int16+int32", 2, fusedBracketsRun[int16], fusedBracketsRun[int32])
}
func TestFusedMatchBracketsNarrowAllocFree(t *testing.T) {
	fusedAlloc(t, "MatchBracketsIx[int32]", 2, fusedBracketsRun[int32])
}
func TestFusedMatchBracketsInt16AllocFree(t *testing.T) {
	fusedAlloc(t, "MatchBracketsIx[int16]", 2, fusedBracketsRun[int16])
}

func fusedEvalTreeRun[I Ix](s *pram.Sim) func() {
	m := 1 << 12
	n := 2*m - 1
	tree := NewBinTreeIx[I](n)
	op := make([]NodeOp, n)
	leafVal := make([]int64, n)
	// A left-leaning chain of OpSum nodes over m unit leaves.
	inner := m - 1
	for v := 0; v < inner; v++ {
		var l I
		if v+1 < inner {
			l = I(v + 1)
		} else {
			l = I(inner)
		}
		r := I(inner + 1 + v)
		tree.Left[v], tree.Right[v] = l, r
		tree.Parent[l], tree.Parent[r] = I(v), I(v)
		op[v] = NodeOp{Kind: OpSum}
	}
	for v := inner; v < n; v++ {
		leafVal[v] = 1
	}
	// The leaf ranks come from a throwaway Sim so the measured one sees
	// only the contraction.
	s2 := pram.NewSerial()
	tour := TourBinaryIx(s2, tree, 1)
	ranks, _ := tour.LeafRanks(s2, tree)
	return func() {
		pram.Release(s, EvalTreeIx(s, tree, op, leafVal, ranks))
	}
}

func TestFusedEvalTreeAllocFree(t *testing.T) {
	fusedAlloc(t, "EvalTreeIx int16+int32", 2, fusedEvalTreeRun[int16], fusedEvalTreeRun[int32])
}
func TestFusedEvalTreeNarrowAllocFree(t *testing.T) {
	fusedAlloc(t, "EvalTreeIx[int32]", 2, fusedEvalTreeRun[int32])
}
func TestFusedEvalTreeInt16AllocFree(t *testing.T) {
	fusedAlloc(t, "EvalTreeIx[int16]", 2, fusedEvalTreeRun[int16])
}

// The int16 kernels on the dispatched (phase-structured) route, at a
// size inside their serving envelope and with the fused cutover
// disabled so the worker pool is what gets measured.
func int16AllocSim() *pram.Sim {
	return pram.New(pram.ProcsFor(3270), pram.WithWorkers(2), pram.WithGrain(256), pram.WithSeqCutover(-1))
}

func TestScanIxInt16AllocFree(t *testing.T) {
	s := int16AllocSim()
	defer s.Close()
	allocFree(t, "ScanIx[int16]", 20, 2, scanRun[int16](s, 3270)) // total ≈ 9.8K, inside int16
}

func TestRankOptIxInt16AllocFree(t *testing.T) {
	s := int16AllocSim()
	defer s.Close()
	allocFree(t, "RankOptIx[int16]", 10, 2, rankOptRun[int16](s, 3270))
}

func TestMatchBracketsIxInt16AllocFree(t *testing.T) {
	s := int16AllocSim()
	defer s.Close()
	allocFree(t, "MatchBracketsIx[int16]", 10, 2, bracketsRun[int16](s, 3270))
}

// TestPrimitivesMatchSerialAfterReuse drives the pooled primitives
// through many iterations on one Sim — the buffer-recycling regime — and
// cross-checks every iteration against the serial reference, guarding
// against stale-buffer reuse bugs (a cleared-vs-recycled mix-up would
// show up here, not in one-shot tests).
func TestPrimitivesMatchSerialAfterReuse(t *testing.T) {
	s := pram.New(pram.ProcsFor(4096), pram.WithWorkers(4), pram.WithGrain(64))
	defer s.Close()
	s.Scratch().SetDebug(true)
	ser := pram.NewSerial()
	rng := rand.New(rand.NewPCG(4, 2))
	for iter := 0; iter < 25; iter++ {
		n := 512 + rng.IntN(4096)
		in := make([]int32, n)
		open := make([]bool, n)
		next := make([]int32, n)
		perm := rng.Perm(n)
		for i := range in {
			in[i] = int32(rng.IntN(100))
			open[i] = rng.IntN(2) == 0
			if i < n-1 {
				next[perm[i]] = int32(perm[i+1])
			}
		}
		next[perm[n-1]] = -1

		out, total := ScanIx(s, in)
		wantOut, wantTotal := ScanIx(ser, in)
		if total != wantTotal {
			t.Fatalf("iter %d: ScanIx total %d want %d", iter, total, wantTotal)
		}
		for i := range out {
			if out[i] != wantOut[i] {
				t.Fatalf("iter %d: ScanIx[%d] = %d want %d", iter, i, out[i], wantOut[i])
			}
		}
		pram.Release(s, out)

		match := MatchBracketsIx[int32](s, open)
		want := make([]int32, n)
		matchSerial(open, want)
		for i := range match {
			if match[i] != want[i] {
				t.Fatalf("iter %d: MatchBracketsIx[%d] = %d want %d", iter, i, match[i], want[i])
			}
		}
		pram.Release(s, match)

		dist, last := RankOptIx(s, next, uint64(iter))
		wd, wl := RankOptIx(ser, next, uint64(iter))
		for i := range dist {
			if dist[i] != wd[i] || last[i] != wl[i] {
				t.Fatalf("iter %d: RankOptIx[%d] = (%d,%d) want (%d,%d)",
					iter, i, dist[i], last[i], wd[i], wl[i])
			}
		}
		pram.Release(s, dist)
		pram.Release(s, last)
	}
}
