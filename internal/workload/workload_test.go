package workload

import (
	"testing"
	"testing/quick"

	"pathcover/internal/baseline"
	"pathcover/internal/cotree"
	"pathcover/internal/pram"
)

func height(t *cotree.Tree) int {
	var h func(u int) int
	h = func(u int) int {
		best := 0
		for _, c := range t.Children[u] {
			if d := h(c) + 1; d > best {
				best = d
			}
		}
		return best
	}
	return h(t.Root)
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(42, 100, Mixed)
	b := Random(42, 100, Mixed)
	if a.String() != b.String() {
		t.Fatal("same seed produced different trees")
	}
	c := Random(43, 100, Mixed)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical trees (suspicious)")
	}
}

func TestRandomValid(t *testing.T) {
	f := func(seed uint64, nRaw uint16, shapeRaw uint8) bool {
		n := int(nRaw%300) + 1
		shape := Shape(shapeRaw % 3)
		tr := Random(seed, n, shape)
		return tr.Validate() == nil && tr.NumVertices() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestShapesHaveExpectedHeights(t *testing.T) {
	n := 512
	hb := height(Random(7, n, Balanced))
	hc := height(Random(7, n, Caterpillar))
	if hb > 2*10 { // ~2*log2(512)
		t.Errorf("balanced height %d too large", hb)
	}
	if hc < n/4 {
		t.Errorf("caterpillar height %d too small", hc)
	}
}

func TestFamilies(t *testing.T) {
	s := pram.NewSerial()
	check := func(name string, tr *cotree.Tree, wantPaths int) {
		t.Helper()
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := tr.Binarize(s)
		L := b.MakeLeftist(s, 1)
		if got := int(baseline.PathCounts(b, L)[b.Root]); got != wantPaths {
			t.Errorf("%s: min cover %d, want %d", name, got, wantPaths)
		}
	}
	check("K10", Clique(10), 1)
	check("E10", Empty(10), 10)
	check("K_{3,5}", CompleteBipartite(3, 5), 2) // 5-3=2? p(v)=5 paths vs L(w)=3: 5-3=2
	check("K_{5,5}", CompleteBipartite(5, 5), 1)
	check("3xK4", UnionOfCliques(3, 4), 3)
	check("star10", Star(10), 8) // K_{1,9}: 9-1 = 8
	check("multipartite", CompleteMultipartite(2, 2, 2), 1)

	th := Threshold(3, 64)
	if th.NumVertices() != 64 {
		t.Fatal("threshold vertex count")
	}
	if err := th.Validate(); err != nil {
		t.Fatal(err)
	}
	// Threshold cotrees are caterpillars: height Ω(n / 2) typically.
	if h := height(th); h < 8 {
		t.Errorf("threshold cotree suspiciously shallow: %d", h)
	}
}

func TestSingletonFamilies(t *testing.T) {
	for _, tr := range []*cotree.Tree{Clique(1), Empty(1), UnionOfCliques(1, 1)} {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if tr.NumVertices() != 1 {
			t.Fatal("singleton family broken")
		}
	}
}
