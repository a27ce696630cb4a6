package pathcover

// The benchmark harness regenerates every experiment of EXPERIMENTS.md.
// The paper is a theory paper, so each "table" validates a complexity
// claim: simulated PRAM time/work counters (reported as custom metrics)
// measure the paper's bounds, and wall-clock numbers measure the real
// goroutine execution. Run with:
//
//	go test -bench=. -benchmem
//
// Metric conventions:
//
//	simtime       simulated parallel supersteps per run
//	simtime/logn  supersteps divided by log2 n (flat <=> O(log n))
//	simwork/n     simulated operations per vertex (flat <=> O(n) work)

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pathcover/internal/baseline"
	"pathcover/internal/core"
	"pathcover/internal/lowerbound"
	"pathcover/internal/par"
	"pathcover/internal/pram"
	"pathcover/internal/workload"
)

func lg2(n int) float64 { return math.Log2(float64(n)) }

// E1 — Theorem 2.2 / Fig. 2: the OR-reduction gadget. Solving the
// gadget with the optimal algorithm answers OR in O(log n) simulated
// time; the matching upper bound for the lower-bound argument.
func BenchmarkE1LowerBoundGadget(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, uint64(n)))
			bits := make([]bool, n)
			for i := range bits {
				bits[i] = rng.IntN(1000) == 0
			}
			inst := lowerbound.Build(bits)
			var time, work int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := pram.New(pram.ProcsFor(n))
				cov, err := core.ParallelCover(s, inst.Tree, core.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := inst.Decode(cov.Paths); err != nil {
					b.Fatal(err)
				}
				time += s.Time()
				work += s.Work()
			}
			b.ReportMetric(float64(time)/float64(b.N), "simtime")
			b.ReportMetric(float64(time)/float64(b.N)/lg2(n), "simtime/logn")
			b.ReportMetric(float64(work)/float64(b.N)/float64(n), "simwork/n")
		})
	}
}

// E2 — Lemma 2.3: the sequential algorithm is O(n). ns/op divided by n
// (reported as ns/vertex) must stay flat across the sweep.
func BenchmarkE2Sequential(b *testing.B) {
	for _, shape := range []workload.Shape{workload.Mixed, workload.Caterpillar} {
		for _, n := range []int{1 << 12, 1 << 15, 1 << 18} {
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				t := workload.Random(7, n, shape)
				s := pram.NewSerial()
				bin := t.Binarize(s)
				L := bin.MakeLeftist(s, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					paths := baseline.SequentialCover(bin, L)
					if len(paths) == 0 {
						b.Fatal("no paths")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/vertex")
			})
		}
	}
}

// E3 — Lemma 2.4: p(u) for every node by tree contraction in O(log n)
// time and O(n) work.
func BenchmarkE3PathCount(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 15, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := workload.Random(3, n, workload.Mixed)
			setup := pram.NewSerial()
			bin := t.Binarize(setup)
			L := bin.MakeLeftist(setup, 1)
			var time, work int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := pram.New(pram.ProcsFor(n))
				tour := par.TourBinaryIx(s, bin.BinTree, uint64(i))
				p := core.ComputePIx(s, bin, L, tour)
				if p[bin.Root] < 1 {
					b.Fatal("bad p")
				}
				time += s.Time()
				work += s.Work()
			}
			b.ReportMetric(float64(time)/float64(b.N)/lg2(n), "simtime/logn")
			b.ReportMetric(float64(work)/float64(b.N)/float64(n), "simwork/n")
		})
	}
}

// E4 — Theorem 5.3 (the headline): full minimum path cover reporting in
// O(log n) simulated time and O(n) work with n/log n processors,
// independent of the cotree height (balanced vs caterpillar).
func BenchmarkE4Optimal(b *testing.B) {
	for _, shape := range []workload.Shape{workload.Balanced, workload.Caterpillar} {
		for _, n := range []int{1 << 12, 1 << 15, 1 << 18} {
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				t := workload.Random(11, n, shape)
				var time, work int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := pram.New(pram.ProcsFor(n))
					cov, err := core.ParallelCover(s, t, core.Options{Seed: uint64(i)})
					if err != nil {
						b.Fatal(err)
					}
					_ = cov
					time += s.Time()
					work += s.Work()
				}
				b.ReportMetric(float64(time)/float64(b.N), "simtime")
				b.ReportMetric(float64(time)/float64(b.N)/lg2(n), "simtime/logn")
				b.ReportMetric(float64(work)/float64(b.N)/float64(n), "simwork/n")
			})
		}
	}
}

// E5 — the naive parallelization of §2: O(height * log n) simulated
// time. On caterpillar cotrees it is slower than E4 by a factor that
// grows linearly in n; on balanced ones it roughly ties.
func BenchmarkE5Naive(b *testing.B) {
	for _, shape := range []workload.Shape{workload.Balanced, workload.Caterpillar} {
		for _, n := range []int{1 << 12, 1 << 15, 1 << 18} {
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				t := workload.Random(11, n, shape)
				setup := pram.NewSerial()
				bin := t.Binarize(setup)
				L := bin.MakeLeftist(setup, 1)
				var time int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := pram.New(pram.ProcsFor(n))
					baseline.NaiveCover(s, bin, L)
					time += s.Time()
				}
				b.ReportMetric(float64(time)/float64(b.N), "simtime")
				b.ReportMetric(float64(time)/float64(b.N)/lg2(n), "simtime/logn")
			})
		}
	}
}

// E6 — work-optimality in practice: wall-clock speedup of the
// goroutine-backed parallel cover against the O(n) sequential baseline.
func BenchmarkE6Speedup(b *testing.B) {
	n := 1 << 19
	t := workload.Random(13, n, workload.Mixed)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := pram.NewSerial()
			bin := t.Binarize(s)
			L := bin.MakeLeftist(s, 1)
			baseline.SequentialCover(bin, L)
		}
	})
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("parallel/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := pram.New(pram.ProcsFor(n), pram.WithWorkers(workers))
				if _, err := core.ParallelCover(s, t, core.Options{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E7 — Lemma 5.1 primitives: prefix sums, list ranking (work-optimal vs
// Wyllie ablation), bracket matching.
func BenchmarkE7Primitives(b *testing.B) {
	n := 1 << 18
	data := make([]int32, n)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := range data {
		data[i] = int32(rng.IntN(100))
	}
	b.Run("scan", func(b *testing.B) {
		var time, work int64
		for i := 0; i < b.N; i++ {
			s := pram.New(pram.ProcsFor(n))
			par.ScanIx(s, data)
			time += s.Time()
			work += s.Work()
		}
		b.ReportMetric(float64(time)/float64(b.N)/lg2(n), "simtime/logn")
		b.ReportMetric(float64(work)/float64(b.N)/float64(n), "simwork/n")
	})
	next := make([]int32, n)
	for i := 0; i < n-1; i++ {
		next[i] = int32(i + 1)
	}
	next[n-1] = -1
	b.Run("listrank/workopt", func(b *testing.B) {
		var time, work int64
		for i := 0; i < b.N; i++ {
			s := pram.New(pram.ProcsFor(n))
			par.RankOptIx(s, next, uint64(i))
			time += s.Time()
			work += s.Work()
		}
		b.ReportMetric(float64(time)/float64(b.N)/lg2(n), "simtime/logn")
		b.ReportMetric(float64(work)/float64(b.N)/float64(n), "simwork/n")
	})
	b.Run("listrank/wyllie", func(b *testing.B) {
		var time, work int64
		for i := 0; i < b.N; i++ {
			s := pram.New(pram.ProcsFor(n))
			par.RankIx(s, next)
			time += s.Time()
			work += s.Work()
		}
		b.ReportMetric(float64(time)/float64(b.N)/lg2(n), "simtime/logn")
		b.ReportMetric(float64(work)/float64(b.N)/float64(n), "simwork/n")
	})
	open := make([]bool, n)
	for i := range open {
		open[i] = rng.IntN(2) == 0
	}
	b.Run("brackets", func(b *testing.B) {
		var time, work int64
		for i := 0; i < b.N; i++ {
			s := pram.New(pram.ProcsFor(n))
			par.MatchBracketsIx[int32](s, open)
			time += s.Time()
			work += s.Work()
		}
		b.ReportMetric(float64(time)/float64(b.N)/lg2(n), "simtime/logn")
		b.ReportMetric(float64(work)/float64(b.N)/float64(n), "simwork/n")
	})
}

// E8 — Lemma 5.2: Euler tour numberings of a tree.
func BenchmarkE8Euler(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := workload.Random(9, n, workload.Mixed)
			setup := pram.NewSerial()
			bin := t.Binarize(setup)
			var time, work int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := pram.New(pram.ProcsFor(n))
				tour := par.TourBinaryIx(s, bin.BinTree, uint64(i))
				tour.SubtreeCounts(s, bin.BinTree)
				time += s.Time()
				work += s.Work()
			}
			b.ReportMetric(float64(time)/float64(b.N)/lg2(n), "simtime/logn")
			b.ReportMetric(float64(work)/float64(b.N)/float64(n), "simwork/n")
		})
	}
}

// End-to-end wall-clock benchmark of the public API (the README's
// headline numbers). The package-level call copies the result out of a
// pooled solver's arena each time.
func BenchmarkAPICover(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 18, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := Random(3, n, Mixed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.MinimumPathCover(WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverCover is the steady-state serving path: one reusable
// Solver amortising its worker pool and scratch arena across calls, no
// result copy. This is the configuration the PR 1 executor rewrite
// optimises for.
func BenchmarkSolverCover(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 18, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := Random(3, n, Mixed)
			sv := NewSolver()
			defer sv.Close()
			if _, err := sv.MinimumPathCover(g); err != nil {
				b.Fatal(err) // warm the arena
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sv.MinimumPathCover(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
