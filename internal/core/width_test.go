package core

import (
	"errors"
	"math/rand/v2"
	"testing"

	"pathcover/internal/baseline"
	"pathcover/internal/cotree"
	"pathcover/internal/pram"
	"pathcover/internal/verify"
	"pathcover/internal/workload"
)

// The width/cutover differential suite: the int16 and int32 pipelines
// and the sequential baseline must agree on every input, for every
// placement of the sequential-cutover threshold, and the widths must
// additionally agree on the simulated cost counters bit for bit.

// width is one way to run the pipeline: an index width called directly,
// or the n-based dispatch of ParallelCover.
type width struct {
	name string
	run  func(*pram.Sim, *cotree.Tree, Options) (*Cover, error)
}

var (
	width16  = width{"int16", parallelCoverIx[int16]}
	width32  = width{"int32", parallelCoverIx[int32]}
	dispatch = width{"dispatch", ParallelCover}
)

// coverWith runs one full parallel cover under the given width and
// cutover and returns the paths plus the Sim's counters.
func coverWith(t *testing.T, tr *workloadTree, w width, cutover int) ([][]int, pram.Stats) {
	t.Helper()
	s := pram.New(pram.ProcsFor(tr.n), pram.WithWorkers(2), pram.WithGrain(64), pram.WithSeqCutover(cutover))
	defer s.Close()
	cov, err := w.run(s, tr.tree, Options{Seed: tr.seed})
	if err != nil {
		t.Fatalf("%v cover (width=%s cutover=%d): %v", tr, w.name, cutover, err)
	}
	paths := make([][]int, len(cov.Paths))
	for i, p := range cov.Paths {
		paths[i] = append([]int(nil), p...)
	}
	return paths, cov.Stats
}

type workloadTree struct {
	tree  *cotree.Tree
	n     int
	seed  uint64
	shape workload.Shape
}

func pathsEq(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// checkInstance cross-checks one instance across widths, cutover
// placements and the sequential baseline.
func checkInstance(t *testing.T, seed uint64, n int, shape workload.Shape) {
	t.Helper()
	tree := workload.Random(seed, n, shape)
	tr := &workloadTree{tree: tree, n: n, seed: seed, shape: shape}

	// The cutover boundary: thresholds below, at and above every phase
	// size the pipeline will see, including the dispatch-everything and
	// fuse-everything extremes.
	cutovers := []int{-1, n / 2, n, 3*n + 1, 1 << 30}
	widths := []width{width32}
	if n <= MaxInt16Vertices {
		widths = append(widths, width16)
	}
	var refPaths [][]int
	var refStats pram.Stats
	for ci, cut := range cutovers {
		for _, width := range widths {
			paths, stats := coverWith(t, tr, width, cut)
			if ci == 0 && width.name == width32.name {
				refPaths, refStats = paths, stats
				// The referee: valid cover, provably minimum size.
				if err := verify.MinimumCover(tree, paths); err != nil {
					t.Fatalf("seed=%d n=%d %v: %v", seed, n, shape, err)
				}
				continue
			}
			if !pathsEq(paths, refPaths) {
				t.Fatalf("seed=%d n=%d %v width=%s cutover=%d: paths diverge from reference",
					seed, n, shape, width.name, cut)
			}
			if stats.Time != refStats.Time || stats.Work != refStats.Work || stats.Phases != refStats.Phases {
				t.Fatalf("seed=%d n=%d %v width=%s cutover=%d: stats %+v != reference %+v",
					seed, n, shape, width.name, cut, stats, refStats)
			}
		}
	}

	// Sequential baseline agreement on the cover size (the constructions
	// legitimately differ path by path; minimality is the contract).
	sser := pram.NewSerial()
	b := tree.Binarize(sser)
	L := b.MakeLeftist(sser, 1)
	seqPaths := baseline.SequentialCover(b, L)
	if len(seqPaths) != len(refPaths) {
		t.Fatalf("seed=%d n=%d %v: parallel %d paths, sequential baseline %d",
			seed, n, shape, len(refPaths), len(seqPaths))
	}
	if err := verify.MinimumCover(tree, seqPaths); err != nil {
		t.Fatalf("seed=%d n=%d %v: sequential baseline invalid: %v", seed, n, shape, err)
	}
}

// TestDifferentialWidthsAndCutover is the deterministic corpus run on
// every `go test`.
func TestDifferentialWidthsAndCutover(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 729))
	shapes := []workload.Shape{workload.Mixed, workload.Balanced, workload.Caterpillar}
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.IntN(900)
		checkInstance(t, rng.Uint64(), n, shapes[trial%len(shapes)])
	}
	// Tiny corner sizes, where cutover/fused routes always engage.
	for _, n := range []int{2, 3, 4, 5} {
		checkInstance(t, uint64(n)*17, n, workload.Mixed)
	}
}

// TestHamiltonianCycleWidths pins the width plumbing of the cycle
// construction: both widths must agree on existence and on the cycle
// itself, and produced cycles must verify against the graph.
func TestHamiltonianCycleWidths(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 66))
	trees := []*cotree.Tree{
		workload.Clique(3),
		workload.Clique(257),
		workload.CompleteBipartite(40, 40),
		workload.Random(7, 500, workload.Mixed),
		workload.Random(8, 501, workload.Balanced),
	}
	for ti, tree := range trees {
		seed := rng.Uint64()
		run := func(name string, cycle func(*pram.Sim, *cotree.Tree, Options) ([]int, bool, error)) ([]int, bool) {
			s := pram.New(pram.ProcsFor(tree.NumVertices()), pram.WithWorkers(2), pram.WithGrain(64))
			defer s.Close()
			c, ok, err := cycle(s, tree, Options{Seed: seed})
			if err != nil {
				t.Fatalf("tree %d width %s: %v", ti, name, err)
			}
			return append([]int(nil), c...), ok
		}
		nc, nok := run("int32", hamCycleIx[int32])
		hc, hok := run("int16", hamCycleIx[int16])
		if nok != hok {
			t.Fatalf("tree %d: int32 ok=%v int16 ok=%v", ti, nok, hok)
		}
		if !nok {
			continue
		}
		if len(nc) != len(hc) {
			t.Fatalf("tree %d: cycle lengths %d vs %d", ti, len(nc), len(hc))
		}
		for i := range nc {
			if nc[i] != hc[i] {
				t.Fatalf("tree %d: cycles diverge at %d: %d vs %d", ti, i, nc[i], hc[i])
			}
		}
		if err := verify.Cycle(tree, nc); err != nil {
			t.Fatalf("tree %d: %v", ti, err)
		}
	}
}

// TestInt16Boundary runs real covers at exactly MaxInt16Vertices and
// one past it: at the bound the dispatch must pick the int16 kernels,
// with paths and counters identical to an int32 run; one past it the
// dispatch must fall over to int32. Past MaxNarrowVertices every entry
// point rejects with a typed *SizeError.
func TestInt16Boundary(t *testing.T) {
	if got := RouteWidth(MaxInt16Vertices); got != "int16" {
		t.Fatalf("RouteWidth(MaxInt16Vertices) = %q", got)
	}
	if got := RouteWidth(MaxInt16Vertices + 1); got != "int32" {
		t.Fatalf("RouteWidth(MaxInt16Vertices+1) = %q", got)
	}
	at := workload.Random(301, MaxInt16Vertices, workload.Mixed)
	trAt := &workloadTree{tree: at, n: MaxInt16Vertices, seed: 301, shape: workload.Mixed}
	refPaths, refStats := coverWith(t, trAt, width32, 0)
	for _, w := range []width{width16, dispatch} {
		paths, stats := coverWith(t, trAt, w, 0)
		if !pathsEq(paths, refPaths) {
			t.Fatalf("n=MaxInt16Vertices width=%s: paths diverge from int32 reference", w.name)
		}
		if stats != refStats {
			t.Fatalf("n=MaxInt16Vertices width=%s: stats %+v != int32 %+v", w.name, stats, refStats)
		}
	}

	over := workload.Random(302, MaxInt16Vertices+1, workload.Mixed)
	trOver := &workloadTree{tree: over, n: MaxInt16Vertices + 1, seed: 302, shape: workload.Mixed}
	wp, ws := coverWith(t, trOver, width32, 0)
	ap, as := coverWith(t, trOver, dispatch, 0)
	if !pathsEq(ap, wp) || as != ws {
		t.Fatalf("dispatch one past the int16 bound diverges from int32")
	}
	if err := verify.MinimumCover(over, ap); err != nil {
		t.Fatalf("n=MaxInt16Vertices+1: %v", err)
	}

	if err := checkSize(MaxNarrowVertices); err != nil {
		t.Fatalf("checkSize(MaxNarrowVertices) = %v", err)
	}
	var se *SizeError
	if err := checkSize(MaxNarrowVertices + 1); !errors.As(err, &se) {
		t.Fatalf("checkSize past the int32 bound: err = %v, want *SizeError", err)
	} else if se.N != MaxNarrowVertices+1 || se.Max != MaxNarrowVertices {
		t.Fatalf("SizeError fields %+v", se)
	}
}

// FuzzDifferentialWidths lets the fuzzer pick the instance.
func FuzzDifferentialWidths(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint8(0))
	f.Add(uint64(99), uint16(700), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, shape uint8) {
		n := 2 + int(n16)%1500
		checkInstance(t, seed, n, workload.Shape(shape%3))
	})
}
