package pathcover

// Race audit of the shared solver state behind the package-level Graph
// methods. The pre-Pool design recycled Solvers through a sync.Pool
// whose retire path mutated solver-owned state between Put and the next
// Get; the Pool routing replaces that with per-shard exclusive slots.
// This suite hammers every route that touches the shared fleet — run
// under -race in CI — with graphs shared across goroutines (cotree
// reads must be concurrency-safe) and with one-shot, explicit-Solver
// and explicit-Pool traffic interleaved in one process.

import (
	"context"
	"sync"
	"testing"
)

// TestOneShotSharedStateRace: concurrent one-shot callers across all
// algorithms and per-call configurations, including the transient-
// solver route (WithWorkers) and the Hamiltonian wrappers, partly on
// the same *Graph values.
func TestOneShotSharedStateRace(t *testing.T) {
	sharedGraphs := []*Graph{
		Random(1, 600, Mixed),
		Random(2, 900, Caterpillar),
		Random(3, 1200, Balanced),
	}
	wants := make([]int, len(sharedGraphs))
	for i, g := range sharedGraphs {
		wants[i] = g.MinPathCoverSize()
	}
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				gi := (w + i) % len(sharedGraphs)
				g := sharedGraphs[gi]
				var opts []Option
				switch (w + i) % 4 {
				case 1:
					opts = append(opts, WithWorkers(2)) // transient-solver route
				case 2:
					opts = append(opts, WithAlgorithm(Naive))
				case 3:
					opts = append(opts, WithSeed(uint64(w*100+i)))
				}
				cov, err := g.MinimumPathCover(opts...)
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if cov.NumPaths != wants[gi] {
					t.Errorf("worker %d iter %d: %d paths, want %d", w, i, cov.NumPaths, wants[gi])
					return
				}
				if err := g.Verify(cov.Paths); err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if i%3 == 0 {
					priv := Random(uint64(w*1000+i), 150+w*17+i, Shape(i%3))
					if _, ok := priv.HamiltonianPath(WithAlgorithm(Parallel)); ok {
						// ok is graph-dependent; the point is the route.
						_ = ok
					}
					priv.HamiltonianCycle(WithAlgorithm(Parallel))
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMixedFleetRace interleaves one-shot calls, a private Solver and a
// private Pool in one process: three independent solver fleets must
// never share mutable state.
func TestMixedFleetRace(t *testing.T) {
	g := Random(7, 800, Mixed)
	want := g.MinPathCoverSize()
	p := NewPool(WithShards(2))
	defer p.Close()
	var wg sync.WaitGroup
	check := func(who string, cov *Cover, err error) {
		if err != nil {
			t.Errorf("%s: %v", who, err)
			return
		}
		if cov.NumPaths != want {
			t.Errorf("%s: %d paths, want %d", who, cov.NumPaths, want)
			return
		}
		if err := g.Verify(cov.Paths); err != nil {
			t.Errorf("%s: %v", who, err)
		}
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			cov, err := g.MinimumPathCover()
			check("one-shot", cov, err)
		}
	}()
	go func() {
		defer wg.Done()
		sv := NewSolver()
		defer sv.Close()
		for i := 0; i < 12; i++ {
			cov, err := sv.MinimumPathCover(g)
			check("solver", cov, err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			cov, err := p.MinimumPathCover(context.Background(), g)
			check("pool", cov, err)
		}
	}()
	wg.Wait()
}

// TestSolverWorkersParityRace runs the pooled pipeline — a Solver with
// four real workers — at serving sizes on every random shape, under
// -race in CI at both sequential-cutover extremes. Step 6's concurrent
// exchanges and the tree contraction's concurrent rakes share link
// arrays, so a phase body that reads a link another body writes shows
// up here. The covers must also match a one-worker Solver's, simulated
// counters included.
func TestSolverWorkersParityRace(t *testing.T) {
	pooled := NewSolver(WithWorkers(4))
	defer pooled.Close()
	serial := NewSolver(WithWorkers(1))
	defer serial.Close()
	for _, shape := range []Shape{Mixed, Balanced, Caterpillar} {
		for _, n := range []int{300, 2000, 20000} {
			g := Random(7, n, shape)
			want, err := serial.MinimumPathCover(g)
			if err != nil {
				t.Fatalf("shape %v n=%d serial: %v", shape, n, err)
			}
			wantPaths, wantStats := want.NumPaths, want.Stats
			got, err := pooled.MinimumPathCover(g)
			if err != nil {
				t.Fatalf("shape %v n=%d pooled: %v", shape, n, err)
			}
			if err := g.Verify(got.Paths); err != nil {
				t.Fatalf("shape %v n=%d: %v", shape, n, err)
			}
			if got.NumPaths != wantPaths || got.Stats != wantStats {
				t.Fatalf("shape %v n=%d: pooled %d paths %+v, serial %d paths %+v",
					shape, n, got.NumPaths, got.Stats, wantPaths, wantStats)
			}
		}
	}
}
