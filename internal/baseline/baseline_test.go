package baseline

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pathcover/internal/cograph"
	"pathcover/internal/cotree"
	"pathcover/internal/pram"
)

// randomTree builds a random canonical cotree with n leaves.
func randomTree(rng *rand.Rand, n int) *cotree.Tree {
	var build func(n int, label int8) *cotree.Tree
	id := 0
	build = func(n int, label int8) *cotree.Tree {
		if n == 1 {
			id++
			return cotree.Single(fmt.Sprintf("u%d", id))
		}
		k := 2
		if n > 2 {
			k = 2 + rng.IntN(min(n-1, 4)-1)
		}
		sizes := make([]int, k)
		for i := range sizes {
			sizes[i] = 1
		}
		for extra := n - k; extra > 0; extra-- {
			sizes[rng.IntN(k)]++
		}
		child := cotree.Label0
		if label == cotree.Label0 {
			child = cotree.Label1
		}
		parts := make([]*cotree.Tree, k)
		for i := range parts {
			parts[i] = build(sizes[i], child)
		}
		if label == cotree.Label1 {
			return cotree.Join(parts...)
		}
		return cotree.Union(parts...)
	}
	lbl := cotree.Label1
	if rng.IntN(2) == 0 {
		lbl = cotree.Label0
	}
	return build(n, lbl)
}

// checkCover verifies that paths is a valid path cover of the cograph of
// t: a partition of the vertices into paths whose consecutive vertices
// are adjacent.
func checkCover(t *testing.T, tr *cotree.Tree, paths [][]int) {
	t.Helper()
	o := cotree.NewAdjOracle(tr)
	n := tr.NumVertices()
	seen := make([]bool, n)
	count := 0
	for _, p := range paths {
		if len(p) == 0 {
			t.Fatal("empty path in cover")
		}
		for i, v := range p {
			if v < 0 || v >= n {
				t.Fatalf("vertex %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("vertex %d covered twice", v)
			}
			seen[v] = true
			count++
			if i > 0 && !o.Adjacent(p[i-1], v) {
				t.Fatalf("path uses non-edge (%s,%s) in %v\ntree: %s",
					tr.Name(p[i-1]), tr.Name(v), p, tr)
			}
		}
	}
	if count != n {
		t.Fatalf("cover has %d vertices, graph has %d", count, n)
	}
}

func TestSequentialKnownCases(t *testing.T) {
	cases := []struct {
		src  string
		want int // minimum number of paths
	}{
		{"a", 1},
		{"(0 a b)", 2},
		{"(1 a b)", 1},
		{"(1 a b c)", 1},           // K3
		{"(0 a b c d)", 4},         // empty graph
		{"(1 (0 a b) c)", 1},       // P3
		{"(0 (1 a b) (1 c d))", 2}, // 2 disjoint edges
		{"(1 (0 a b c d e) f)", 3}, // star K_{1,5}: paths a-f-b, c, d... p(v)=5 > L(w)=1: 5-1=4? see below
		{"(1 (0 a b) (0 c d))", 1}, // C4 has a Hamiltonian path
	}
	// star K_{1,5}: cover = {a-f-b, c, d, e} -> 4 paths
	cases[7].want = 4
	for _, c := range cases {
		tr := cotree.MustParse(c.src)
		paths := Run(tr)
		checkCover(t, tr, paths)
		if len(paths) != c.want {
			t.Errorf("%s: %d paths, want %d (%v)", c.src, len(paths), c.want, paths)
		}
	}
}

func TestSequentialMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(9)
		tr := randomTree(rng, n)
		paths := Run(tr)
		checkCover(t, tr, paths)
		g := cograph.FromCotree(tr)
		want := BruteMinPathCover(g)
		if len(paths) != want {
			t.Fatalf("trial %d: %d paths, brute force says %d\ntree: %s",
				trial, len(paths), want, tr)
		}
	}
}

func TestSequentialMatchesPathCountFormula(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 4))
	s := pram.NewSerial()
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(200)
		tr := randomTree(rng, n)
		b := tr.Binarize(s)
		L := b.MakeLeftist(s, uint64(trial))
		paths := SequentialCover(b, L)
		checkCover(t, tr, paths)
		p := PathCounts(b, L)
		if len(paths) != int(p[b.Root]) {
			t.Fatalf("trial %d: cover has %d paths, recurrence says %d",
				trial, len(paths), p[b.Root])
		}
	}
}

// Fig. 4 of the paper: Case 1 bridges p(v)=4 paths with L(w)=2 vertices
// into 2 paths; Case 2 merges 4 paths with L(w)=7 vertices into a
// Hamiltonian path.
func TestFig4Cases(t *testing.T) {
	// Case 1: G(v) = empty graph on 4 vertices (4 paths), G(w) = 2
	// isolated vertices; join them.
	tr1 := cotree.MustParse("(1 (0 a b c d) (0 x y))")
	paths := Run(tr1)
	checkCover(t, tr1, paths)
	if len(paths) != 2 {
		t.Errorf("case 1: %d paths, want 2", len(paths))
	}
	// Case 2 needs p(v) <= L(w) with L(v) >= L(w) (leftist): take G(v) =
	// four disjoint edges (8 vertices, 4 paths) and G(w) = 5 isolated
	// vertices: 4 <= 5, so the join is Hamiltonian.
	tr2 := cotree.MustParse("(1 (0 (1 a b) (1 c d) (1 e f) (1 g h)) (0 s t u v w))")
	paths2 := Run(tr2)
	checkCover(t, tr2, paths2)
	if len(paths2) != 1 {
		t.Errorf("case 2: %d paths, want 1", len(paths2))
	}
	// And the K_{4,7} shape really is Case 1 after leftist reordering:
	// p(v)=7 > L(w)=4 gives 7-4=3 paths.
	tr3 := cotree.MustParse("(1 (0 a b c d) (0 s t u v w x y))")
	paths3 := Run(tr3)
	checkCover(t, tr3, paths3)
	if len(paths3) != 3 {
		t.Errorf("K_{4,7}: %d paths, want 3", len(paths3))
	}
}

func TestSequentialLargeShapes(t *testing.T) {
	s := pram.NewSerial()
	// Caterpillar of joins: K_n built as (((a*b)*c)*d)... via nested
	// 2-ary joins — depth n cotree.
	n := 2000
	tr := cotree.Single("x0")
	for i := 1; i < n; i++ {
		tr = cotree.Join(tr, cotree.Single(fmt.Sprintf("x%d", i)))
	}
	b := tr.Binarize(s)
	L := b.MakeLeftist(s, 7)
	paths := SequentialCover(b, L)
	if len(paths) != 1 {
		t.Fatalf("K_%d cover has %d paths", n, len(paths))
	}
	total := 0
	for _, p := range paths {
		total += len(p)
	}
	if total != n {
		t.Fatalf("cover covers %d of %d vertices", total, n)
	}
}

func TestPathCountsKnown(t *testing.T) {
	s := pram.NewSerial()
	tr := cotree.MustParse("(1 (0 a b c d e) f)") // star
	b := tr.Binarize(s)
	L := b.MakeLeftist(s, 1)
	p := PathCounts(b, L)
	if p[b.Root] != 4 {
		t.Errorf("p(root)=%d want 4", p[b.Root])
	}
}

func TestBruteMinPathCoverKnown(t *testing.T) {
	g := cograph.NewGraph(4) // P4-free? this is a C4
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	if got := BruteMinPathCover(g); got != 1 {
		t.Errorf("C4 min cover %d want 1", got)
	}
	e := cograph.NewGraph(3)
	if got := BruteMinPathCover(e); got != 3 {
		t.Errorf("empty3 min cover %d want 3", got)
	}
	k := cograph.NewGraph(1)
	if got := BruteMinPathCover(k); got != 1 {
		t.Errorf("K1 min cover %d want 1", got)
	}
}

func TestBruteHamiltonianCycle(t *testing.T) {
	c4 := cograph.NewGraph(4)
	c4.AddEdge(0, 1)
	c4.AddEdge(1, 2)
	c4.AddEdge(2, 3)
	c4.AddEdge(3, 0)
	if !BruteHasHamiltonianCycle(c4) {
		t.Error("C4 has a Hamiltonian cycle")
	}
	p3 := cograph.NewGraph(3)
	p3.AddEdge(0, 1)
	p3.AddEdge(1, 2)
	if BruteHasHamiltonianCycle(p3) {
		t.Error("P3 has no Hamiltonian cycle")
	}
	if BruteHasHamiltonianCycle(cograph.NewGraph(2)) {
		t.Error("K2-bar has no Hamiltonian cycle")
	}
}

func TestNaiveCoverMatchesSequentialAndChargesHeight(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	sm := pram.NewSerial()
	for trial := 0; trial < 30; trial++ {
		tr := randomTree(rng, 2+rng.IntN(100))
		b := tr.Binarize(sm)
		L := b.MakeLeftist(sm, 3)
		want := SequentialCover(b, L)
		s := pram.New(8)
		got := NaiveCover(s, b, L)
		if len(got) != len(want) {
			t.Fatalf("naive %d paths, sequential %d", len(got), len(want))
		}
		checkCover(t, tr, got)
		h := int64(Height(b))
		if s.Time() < h {
			t.Fatalf("naive charged %d time for height %d", s.Time(), h)
		}
	}
}

func TestNaiveTimeGrowsWithHeight(t *testing.T) {
	s1 := pram.New(64)
	s2 := pram.New(64)
	n := 512
	// caterpillar: nested joins, height ~n
	cat := cotree.Single("x0")
	for i := 1; i < n; i++ {
		cat = cotree.Join(cat, cotree.Single(fmt.Sprintf("x%d", i)))
	}
	bcat := cat.Binarize(pram.NewSerial())
	Lcat := bcat.MakeLeftist(pram.NewSerial(), 1)
	NaiveCover(s1, bcat, Lcat)

	// balanced: K_n as a balanced join tree, height ~log n
	var bal func(lo, hi int) *cotree.Tree
	bal = func(lo, hi int) *cotree.Tree {
		if lo == hi {
			return cotree.Single(fmt.Sprintf("b%d", lo))
		}
		mid := (lo + hi) / 2
		// alternate labels by depth parity of the range size: use Join
		// always -> they merge; instead alternate Union/Join by level.
		return cotree.Join(bal(lo, mid), bal(mid+1, hi))
	}
	// NOTE: nested Joins merge into one flat node, so the binarized tree
	// is a chain; build alternating union/join to get genuine balance.
	var bal2 func(lo, hi int, join bool) *cotree.Tree
	bal2 = func(lo, hi int, join bool) *cotree.Tree {
		if lo == hi {
			return cotree.Single(fmt.Sprintf("c%d", lo))
		}
		mid := (lo + hi) / 2
		a := bal2(lo, mid, !join)
		b := bal2(mid+1, hi, !join)
		if join {
			return cotree.Join(a, b)
		}
		return cotree.Union(a, b)
	}
	balT := bal2(0, n-1, true)
	bbal := balT.Binarize(pram.NewSerial())
	Lbal := bbal.MakeLeftist(pram.NewSerial(), 1)
	NaiveCover(s2, bbal, Lbal)

	if s1.Time() < 10*s2.Time() {
		t.Errorf("caterpillar naive time %d not much larger than balanced %d",
			s1.Time(), s2.Time())
	}
	_ = bal
}

func TestSequentialCoverProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		rng := rand.New(rand.NewPCG(seed, 17))
		tr := randomTree(rng, n)
		paths := Run(tr)
		g := cograph.FromCotree(tr)
		// validity
		o := cotree.NewAdjOracle(tr)
		seen := make([]bool, n)
		cnt := 0
		for _, p := range paths {
			for i, v := range p {
				if seen[v] {
					return false
				}
				seen[v] = true
				cnt++
				if i > 0 && !o.Adjacent(p[i-1], v) {
					return false
				}
			}
		}
		return cnt == n && len(paths) == BruteMinPathCover(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
