package par

import (
	"math/rand/v2"
	"testing"

	"pathcover/internal/pram"
)

// The tour-cache suite: every reuse route (same-seed replay,
// different-seed recharge, patched walk-refresh, stale rebuild) must
// produce the tour a from-scratch build of the current tree would
// produce AND advance the simulated counters exactly as that build
// would. The reference Sim performs the from-scratch builds.

func toursEq(t *testing.T, what string, got, want *TourIx[int32]) {
	t.Helper()
	intsEq(t, what+" Pos", got.Pos, want.Pos)
	intsEq(t, what+" Seq", got.Seq, want.Seq)
	intsEq(t, what+" Pre", got.Pre, want.Pre)
	intsEq(t, what+" In", got.In, want.In)
	intsEq(t, what+" Post", got.Post, want.Post)
	intsEq(t, what+" InSeq", got.InSeq, want.InSeq)
	intsEq(t, what+" Root", got.Root, want.Root)
	intsEq(t, what+" Roots", got.Roots, want.Roots)
}

func cacheSims(n int) (cached, ref *pram.Sim) {
	procs := pram.ProcsFor(n)
	cached = pram.New(procs, pram.WithWorkers(2), pram.WithGrain(64))
	ref = pram.New(procs, pram.WithWorkers(2), pram.WithGrain(64))
	return cached, ref
}

// TestTourCacheReuse acquires the same tree repeatedly under changing
// seeds and checks values and counters against fresh builds.
func TestTourCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 3))
	for _, n := range []int{5, 120, 900} {
		forest := randomForest(rng, n)
		cs, ref := cacheSims(n)
		cs.Scratch().SetDebug(true)
		for trial, seed := range []uint64{9, 9, 40, 9, 40, 40} {
			tour, owned := AcquireTourIx(cs, forest, seed)
			if owned {
				t.Fatalf("n=%d trial %d: expected a cache-served tour", n, trial)
			}
			want := TourBinaryIx(ref, forest, seed)
			toursEq(t, "cached", tour, want)
			a, b := cs.Stats(), ref.Stats()
			if a.Time != b.Time || a.Work != b.Work || a.Phases != b.Phases {
				t.Fatalf("n=%d trial %d (seed %d): cached stats %+v != fresh stats %+v",
					n, trial, seed, a, b)
			}
			want.Release(ref)
		}
		cs.Close()
		ref.Close()
	}
}

// TestTourCachePatchSwap mutates the tree with recorded subtree swaps
// (the Step 6 exchange pattern) and checks the walk-refresh route.
func TestTourCachePatchSwap(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 44))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.IntN(400)
		forest := randomForest(rng, n)
		cs, ref := cacheSims(n)
		if _, owned := AcquireTourIx(cs, forest, 5); owned {
			t.Fatal("expected the build to be cached")
		}
		{
			w := TourBinaryIx(ref, forest, 5)
			w.Release(ref)
		}

		// A few swaps of non-root, non-ancestor-related nodes: swapping two
		// leaves-of-distinct-subtrees positions is always structure-safe.
		for sw := 0; sw < 5; sw++ {
			x, y := int32(-1), int32(-1)
			for tries := 0; tries < 200; tries++ {
				a, b := rng.IntN(n), rng.IntN(n)
				if a == b || forest.Parent[a] < 0 || forest.Parent[b] < 0 {
					continue
				}
				if !forest.IsLeaf(a) || !forest.IsLeaf(b) || forest.Parent[a] == int32(b) || forest.Parent[b] == int32(a) {
					continue
				}
				x, y = int32(a), int32(b)
				break
			}
			if x < 0 {
				break
			}
			swapTreePositions(forest, x, y)
			PatchTourSwapIx(cs, forest, x, y)
		}

		tour, owned := AcquireTourIx(cs, forest, 12)
		if owned {
			t.Fatal("expected a cache-served tour after patching")
		}
		want := TourBinaryIx(ref, forest, 12)
		toursEq(t, "patched", tour, want)
		a, b := cs.Stats(), ref.Stats()
		if a.Time != b.Time || a.Work != b.Work || a.Phases != b.Phases {
			t.Fatalf("trial %d: patched stats %+v != fresh stats %+v", trial, a, b)
		}
		want.Release(ref)
		cs.Close()
		ref.Close()
	}
}

// swapTreePositions is the test-local mirror of the pipeline's
// swapPositions: exchange the tree positions of x and y, subtrees
// carried along.
func swapTreePositions(t BinTreeIx[int32], x, y int32) {
	px, py := t.Parent[x], t.Parent[y]
	xLeft := px >= 0 && t.Left[px] == x
	yLeft := py >= 0 && t.Left[py] == y
	if px >= 0 {
		if xLeft {
			t.Left[px] = y
		} else {
			t.Right[px] = y
		}
	}
	if py >= 0 {
		if yLeft {
			t.Left[py] = x
		} else {
			t.Right[py] = x
		}
	}
	t.Parent[x], t.Parent[y] = py, px
}

// TestTourCacheTouch covers the stale route: arbitrary child swaps
// (MakeLeftist's mutation) followed by TouchCachedTourIx.
func TestTourCacheTouch(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 66))
	n := 300
	forest := randomForest(rng, n)
	cs, ref := cacheSims(n)
	defer cs.Close()
	defer ref.Close()
	if _, owned := AcquireTourIx(cs, forest, 1); owned {
		t.Fatal("expected the build to be cached")
	}
	{
		w := TourBinaryIx(ref, forest, 1)
		w.Release(ref)
	}
	for v := 0; v < n; v++ {
		if forest.Left[v] >= 0 && forest.Right[v] >= 0 && rng.IntN(2) == 0 {
			forest.Left[v], forest.Right[v] = forest.Right[v], forest.Left[v]
		}
	}
	TouchCachedTourIx(cs, forest)
	tour, owned := AcquireTourIx(cs, forest, 2)
	if owned {
		t.Fatal("expected a cache-served tour after touch")
	}
	want := TourBinaryIx(ref, forest, 2)
	toursEq(t, "touched", tour, want)
	a, b := cs.Stats(), ref.Stats()
	if a.Time != b.Time || a.Work != b.Work || a.Phases != b.Phases {
		t.Fatalf("touched stats %+v != fresh stats %+v", a, b)
	}
	want.Release(ref)
}

// TestTourCacheDropOnRelease pins the lifetime rule: releasing a tree
// through ReleaseBinTreeIx drops its cache entry, so a tree whose
// buffers get recycled can never alias a stale tour.
func TestTourCacheDropOnRelease(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 88))
	n := 200
	s := pram.New(pram.ProcsFor(n), pram.WithWorkers(2), pram.WithGrain(64))
	defer s.Close()
	s.Scratch().SetDebug(true)

	forest := GrabBinTreeIx[int32](s, n)
	for v := 1; v < n; v++ {
		p := rng.IntN(v)
		if forest.Left[p] < 0 {
			forest.Left[p] = int32(v)
		} else if forest.Right[p] < 0 {
			forest.Right[p] = int32(v)
		} else {
			continue
		}
		forest.Parent[v] = int32(p)
	}
	if _, owned := AcquireTourIx(s, forest, 3); owned {
		t.Fatal("expected the build to be cached")
	}
	ReleaseBinTreeIx(s, forest) // must drop the entry (else SetDebug panics later)

	// A new tree likely reuses the released buffers; the cache must treat
	// it as unseen.
	other := GrabBinTreeIx[int32](s, n)
	for v := 1; v < n; v++ { // a left spine: different structure, same size
		other.Left[v-1] = int32(v)
		other.Parent[v] = int32(v - 1)
	}
	tour, owned := AcquireTourIx(s, other, 3)
	ref := pram.New(pram.ProcsFor(n), pram.WithWorkers(2), pram.WithGrain(64))
	defer ref.Close()
	want := TourBinaryIx(ref, other, 3)
	toursEq(t, "recycled", tour, want)
	if owned {
		tour.Release(s)
	}
	want.Release(ref)
	ReleaseBinTreeIx(s, other)
}
