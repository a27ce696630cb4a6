package pathcover

import (
	"context"
	"sync"
	"testing"

	"pathcover/internal/canon"
)

// cachedPool builds a small pool with the canonical-identity cache on.
func cachedPool(t *testing.T, opts ...PoolOption) *Pool {
	t.Helper()
	p := NewPool(append([]PoolOption{
		WithShards(2), WithQueueDepth(-1), WithCache(1 << 20),
		WithShardOptions(WithSeed(1)),
	}, opts...)...)
	t.Cleanup(p.Close)
	return p
}

// TestPoolCacheIsomorphicHit: a relabelled presentation of an
// already-solved graph is served from the cache — remapped onto the
// requester's own numbering, verified against the requester's graph.
func TestPoolCacheIsomorphicHit(t *testing.T) {
	p := cachedPool(t)
	base := Random(11, 300, Mixed)
	twin := Relabelled(base, 5)

	first, err := p.MinimumPathCover(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Verify(first.Paths); err != nil {
		t.Fatalf("miss cover invalid: %v", err)
	}
	second, err := p.MinimumPathCover(context.Background(), twin)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.Verify(second.Paths); err != nil {
		t.Fatalf("hit cover does not verify against the twin's numbering: %v", err)
	}
	if second.NumPaths != first.NumPaths || second.Exact != first.Exact {
		t.Fatalf("hit cover (%d paths, exact=%v) != miss cover (%d, %v)",
			second.NumPaths, second.Exact, first.NumPaths, first.Exact)
	}
	if second.Stats != (Stats{}) {
		t.Fatalf("cache hit charged simulated cost: %+v", second.Stats)
	}
	st := p.Stats().Cache
	if st == nil || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st)
	}

	// Same graph object again: hit, same answer.
	third, err := p.MinimumPathCover(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if third.NumPaths != first.NumPaths {
		t.Fatalf("repeat hit changed the answer: %d vs %d", third.NumPaths, first.NumPaths)
	}
	if st := p.Stats().Cache; st.Hits != 2 {
		t.Fatalf("cache stats after repeat = %+v", st)
	}
}

// TestPoolCacheMissBitIdentical is the standing invariant: a cache
// miss runs the untouched pipeline, so its simulated simtime/simwork
// counters are bit-identical to an uncached pool's solve of the same
// graph under the same options.
func TestPoolCacheMissBitIdentical(t *testing.T) {
	mk := func(cached bool) *Pool {
		opts := []PoolOption{WithShards(1), WithQueueDepth(-1), WithShardOptions(WithSeed(1))}
		if cached {
			opts = append(opts, WithCache(1<<20))
		}
		p := NewPool(opts...)
		t.Cleanup(p.Close)
		return p
	}
	plain, withCache := mk(false), mk(true)
	seen := map[[2]uint64]bool{} // tiny graphs coincide across shapes; only first sight is a miss
	for _, n := range []int{1, 2, 17, 500, 4096} {
		for shape := Shape(0); shape < 3; shape++ {
			g := Random(uint64(n), n, shape)
			hi, lo, _ := g.CanonicalHash()
			if seen[[2]uint64{hi, lo}] {
				continue
			}
			seen[[2]uint64{hi, lo}] = true
			want, err := plain.MinimumPathCover(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := withCache.MinimumPathCover(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != want.Stats {
				t.Fatalf("n=%d shape=%d: miss stats %+v != uncached %+v", n, shape, got.Stats, want.Stats)
			}
			if got.NumPaths != want.NumPaths {
				t.Fatalf("n=%d shape=%d: %d paths != %d", n, shape, got.NumPaths, want.NumPaths)
			}
		}
	}
	if st := withCache.Stats().Cache; st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("expected all misses, got %+v", st)
	}
}

// TestPoolCacheKeyedOnOptions: per-call options that change the answer
// or its counters (seed, procs, algorithm) key separate entries.
func TestPoolCacheKeyedOnOptions(t *testing.T) {
	p := cachedPool(t)
	g := Random(3, 400, Balanced)
	if _, err := p.MinimumPathCover(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MinimumPathCover(context.Background(), g, WithSeed(99)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MinimumPathCover(context.Background(), g, WithProcessors(3)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats().Cache
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("option-distinct calls should all miss: %+v", st)
	}
	// And an execution-only knob must NOT split the key: identical results.
	if _, err := p.MinimumPathCover(context.Background(), g, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats().Cache; st.Hits != 1 {
		t.Fatalf("a different worker count should hit the existing entry: %+v", st)
	}
}

// TestPoolCacheSkipsRawGraphs: FromEdgesAny graphs have no canonical
// form; they must flow through the pipeline without touching the cache.
func TestPoolCacheSkipsRawGraphs(t *testing.T) {
	p := cachedPool(t)
	g, err := FromEdgesAny(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		cov, err := p.MinimumPathCover(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Verify(cov.Paths); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats().Cache
	if st.Hits+st.Misses+st.Coalesced != 0 {
		t.Fatalf("raw graph touched the cache: %+v", st)
	}
}

// TestPoolCacheBatchDedup: a batch full of duplicates and relabelled
// twins of a few base graphs is answered with at most one solve per
// canonical graph; every cover verifies against its own presentation.
func TestPoolCacheBatchDedup(t *testing.T) {
	p := cachedPool(t)
	bases := []*Graph{Random(1, 120, Mixed), Random(2, 250, Caterpillar)}
	var gs []*Graph
	for i := 0; i < 12; i++ {
		b := bases[i%len(bases)]
		if i%3 == 0 {
			gs = append(gs, b)
		} else {
			gs = append(gs, Relabelled(b, uint64(i)))
		}
	}
	covs, err := p.CoverBatch(context.Background(), gs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cov := range covs {
		if err := gs[i].Verify(cov.Paths); err != nil {
			t.Fatalf("batch cover %d: %v", i, err)
		}
		if cov.NumPaths != covs[i%len(bases)].NumPaths {
			t.Fatalf("batch cover %d: %d paths, twin of cover %d with %d",
				i, cov.NumPaths, i%len(bases), covs[i%len(bases)].NumPaths)
		}
	}
	st := p.Stats().Cache
	if st.Hits+st.Misses+st.Coalesced != int64(len(gs)) {
		t.Fatalf("batch outcomes do not sum to batch size: %+v", st)
	}
	// Batch items race pairwise (TryDo never waits), so allow a few
	// redundant solves — but nowhere near one per item.
	if st.Misses >= int64(len(gs)) {
		t.Fatalf("no dedup happened: %+v", st)
	}
}

// TestPoolCacheConcurrentTwins hammers one canonical graph through
// many presentations from many goroutines; the -race build checks the
// singleflight plumbing and every cover must verify.
func TestPoolCacheConcurrentTwins(t *testing.T) {
	p := cachedPool(t)
	base := Random(77, 600, Mixed)
	want, err := p.MinimumPathCover(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				g := base
				if i%2 == 1 {
					g = Relabelled(base, uint64(w*100+i))
				}
				cov, err := p.MinimumPathCover(context.Background(), g)
				if err != nil {
					panic(err)
				}
				if cov.NumPaths != want.NumPaths {
					panic("twin answer diverged")
				}
				if err := g.Verify(cov.Paths); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats().Cache
	if st.Hits == 0 {
		t.Fatalf("no hits across 80 requests for one graph: %+v", st)
	}
}

// TestCanonicalHash: relabelling-invariant for cographs, absent for
// raw graphs, distinct across distinct graphs.
func TestCanonicalHash(t *testing.T) {
	g := Random(5, 64, Mixed)
	hi1, lo1, ok := g.CanonicalHash()
	if !ok {
		t.Fatal("cograph has no canonical hash")
	}
	hi2, lo2, ok := Relabelled(g, 123).CanonicalHash()
	if !ok || hi1 != hi2 || lo1 != lo2 {
		t.Fatalf("relabelled hash (%x,%x) != (%x,%x)", hi2, lo2, hi1, lo1)
	}
	hi3, lo3, _ := Random(6, 64, Mixed).CanonicalHash()
	if hi1 == hi3 && lo1 == lo3 {
		t.Fatal("distinct graphs share a canonical hash")
	}
	raw, err := FromEdgesAny(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := raw.CanonicalHash(); ok {
		t.Fatal("raw graph reported a canonical hash")
	}
}

// TestUncachedPoolHasNilCacheStats: the cache is strictly opt-in.
func TestUncachedPoolHasNilCacheStats(t *testing.T) {
	p := NewPool(WithShards(1))
	defer p.Close()
	if st := p.Stats().Cache; st != nil {
		t.Fatalf("uncached pool reports cache stats: %+v", st)
	}
}

// TestFrontEndAllocBudgets gates the allocations of a cache hit's front
// end at n = 2000: the one-pass parse sizes every array once (O(1)
// allocations, not one per node), Canonicalize on a built tree shares
// its fold, and the parse leaves the canonical form memoized.
func TestFrontEndAllocBudgets(t *testing.T) {
	built := Random(5, 2000, Mixed)
	src := built.String()
	parseHash := testing.AllocsPerRun(20, func() {
		g, err := ParseCotree(src)
		if err != nil {
			t.Fatal(err)
		}
		g.CanonicalHash()
	})
	canonicalize := testing.AllocsPerRun(20, func() { canon.Canonicalize(built.t) })
	g, err := ParseCotree(src)
	if err != nil {
		t.Fatal(err)
	}
	memoHash := testing.AllocsPerRun(20, func() { g.CanonicalHash() })
	for _, b := range []struct {
		name        string
		got, budget float64
	}{
		{"ParseCotree + CanonicalHash", parseHash, 32},
		{"canon.Canonicalize on a built tree", canonicalize, 16},
		{"CanonicalHash after ParseCotree", memoHash, 0},
	} {
		if b.got > b.budget {
			t.Errorf("%s: %.0f allocs/op, budget %.0f", b.name, b.got, b.budget)
		}
	}
}
