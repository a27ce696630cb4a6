package par

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pathcover/internal/pram"
)

// buildLists makes a random set of disjoint lists over n elements and
// returns next plus, for verification, each element's true distance to
// its terminal and the terminal itself.
func buildLists(rng *rand.Rand, n int) (next, wantDist, wantLast []int32) {
	next = make([]int32, n)
	wantDist = make([]int32, n)
	wantLast = make([]int32, n)
	perm := rng.Perm(n)
	for i := range next {
		next[i] = -1
	}
	// Cut the permutation into random chunks; each chunk is a list.
	for lo := 0; lo < n; {
		hi := lo + 1 + rng.IntN(n-lo)
		for k := lo; k < hi-1; k++ {
			next[perm[k]] = int32(perm[k+1])
		}
		for k := lo; k < hi; k++ {
			wantDist[perm[k]] = int32(hi - 1 - k)
			wantLast[perm[k]] = int32(perm[hi-1])
		}
		lo = hi
	}
	return next, wantDist, wantLast
}

func TestRankMatchesTruth(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	for _, s := range sims() {
		for _, n := range []int{1, 2, 3, 17, 256, 3000} {
			next, wantDist, wantLast := buildLists(rng, n)
			dist, last := RankIx(s, next)
			for i := 0; i < n; i++ {
				if dist[i] != wantDist[i] || last[i] != wantLast[i] {
					t.Fatalf("procs=%d n=%d elem %d: got (%d,%d) want (%d,%d)",
						s.Procs(), n, i, dist[i], last[i], wantDist[i], wantLast[i])
				}
			}
		}
	}
}

func TestRankOptMatchesTruth(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for _, s := range sims() {
		for _, n := range []int{1, 2, 65, 300, 5000} {
			next, wantDist, wantLast := buildLists(rng, n)
			dist, last := RankOptIx(s, next, 1234)
			for i := 0; i < n; i++ {
				if dist[i] != wantDist[i] || last[i] != wantLast[i] {
					t.Fatalf("procs=%d n=%d elem %d: got (%d,%d) want (%d,%d)",
						s.Procs(), n, i, dist[i], last[i], wantDist[i], wantLast[i])
				}
			}
		}
	}
}

func TestRankWeighted(t *testing.T) {
	s := pram.New(4, pram.WithGrain(2))
	// 0 ->(5) 1 ->(7) 2
	next := []int32{1, 2, -1}
	w := []int32{5, 7, 0}
	dist, last := RankWeightedIx(s, next, w)
	if dist[0] != 12 || dist[1] != 7 || dist[2] != 0 {
		t.Fatalf("weighted dist = %v", dist)
	}
	if last[0] != 2 || last[1] != 2 || last[2] != 2 {
		t.Fatalf("weighted last = %v", last)
	}
}

func TestRankHandlesInForest(t *testing.T) {
	// Rank (pointer jumping) must tolerate shared terminals: a star where
	// everything points at element 0.
	s := pram.New(8, pram.WithGrain(2))
	n := 50
	next := make([]int32, n)
	next[0] = -1
	for i := 1; i < n; i++ {
		next[i] = 0
	}
	dist, last := RankIx(s, next)
	for i := 1; i < n; i++ {
		if dist[i] != 1 || last[i] != 0 {
			t.Fatalf("star elem %d: (%d,%d)", i, dist[i], last[i])
		}
	}
}

func TestRankOptSingleLongList(t *testing.T) {
	// Worst case for contraction: one list of n elements.
	n := 4096
	next := make([]int32, n)
	for i := 0; i < n-1; i++ {
		next[i] = int32(i + 1)
	}
	next[n-1] = -1
	s := pram.New(pram.ProcsFor(n), pram.WithGrain(64))
	dist, last := RankOptIx(s, next, 99)
	for i := 0; i < n; i++ {
		if dist[i] != int32(n-1-i) || last[i] != int32(n-1) {
			t.Fatalf("elem %d: (%d,%d)", i, dist[i], last[i])
		}
	}
}

func TestRankOptWorkIsLinear(t *testing.T) {
	// RankOpt must do O(n) work where Wyllie does O(n log n): its
	// work-per-element must stay flat as n doubles, and beat Wyllie once
	// log n clears the contraction constant.
	measure := func(n int) (opt, wyl int64) {
		next := make([]int32, n)
		for i := 0; i < n-1; i++ {
			next[i] = int32(i + 1)
		}
		next[n-1] = -1
		sOpt := pram.New(pram.ProcsFor(n), pram.WithGrain(1<<30))
		RankOptIx(sOpt, next, 5)
		sWyl := pram.New(pram.ProcsFor(n), pram.WithGrain(1<<30))
		RankIx(sWyl, next)
		return sOpt.Work(), sWyl.Work()
	}
	o1, _ := measure(1 << 15)
	o2, w2 := measure(1 << 18)
	if o2 > int64(45)*(1<<18) {
		t.Errorf("RankOpt work %d not O(n) (45n = %d)", o2, int64(45)*(1<<18))
	}
	if o2 >= w2 {
		t.Errorf("RankOpt work %d not better than Wyllie %d at n=2^18", o2, w2)
	}
	perElem1 := float64(o1) / float64(1<<15)
	perElem2 := float64(o2) / float64(1<<18)
	if perElem2 > perElem1*1.35 {
		t.Errorf("RankOpt work/elem grew from %.1f to %.1f: not linear", perElem1, perElem2)
	}
}

func TestListPositions(t *testing.T) {
	for _, s := range sims() {
		n := 100
		next := make([]int32, n)
		// list: 0 -> 2 -> 4 -> ... -> 98; odds isolated
		for i := 0; i < n; i++ {
			next[i] = -1
		}
		for i := 0; i+2 < n; i += 2 {
			next[i] = int32(i + 2)
		}
		pos, length := ListPositionsIx(s, next, 0, 77)
		if length != 50 {
			t.Fatalf("length=%d want 50", length)
		}
		for i := 0; i < n; i += 2 {
			if pos[i] != int32(i/2) {
				t.Fatalf("pos[%d]=%d want %d", i, pos[i], i/2)
			}
		}
		for i := 1; i < n; i += 2 {
			if pos[i] != -1 {
				t.Fatalf("isolated pos[%d]=%d want -1", i, pos[i])
			}
		}
	}
}

func TestRankProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, procs uint8) bool {
		n := int(nRaw%800) + 1
		rng := rand.New(rand.NewPCG(seed, 11))
		next, wantDist, wantLast := buildLists(rng, n)
		s := pram.New(1+int(procs%16), pram.WithGrain(16))
		d1, l1 := RankIx(s, next)
		d2, l2 := RankOptIx(s, next, seed)
		for i := 0; i < n; i++ {
			if d1[i] != wantDist[i] || l1[i] != wantLast[i] {
				return false
			}
			if d2[i] != wantDist[i] || l2[i] != wantLast[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
