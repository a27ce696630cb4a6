package pathcover

import (
	"strings"
	"testing"
	"testing/quick"

	"pathcover/internal/backend"
)

func TestQuickstartShape(t *testing.T) {
	g, err := ParseCotree("(1 (0 a b) c)")
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.NumEdges())
	}
	cov, err := g.MinimumPathCover()
	if err != nil {
		t.Fatal(err)
	}
	if cov.NumPaths != 1 {
		t.Fatalf("P3 cover = %d paths", cov.NumPaths)
	}
	if err := g.Verify(cov.Paths); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.RenderCover(cov.Paths), "path 1") {
		t.Error("rendering broken")
	}
}

func TestAlgorithmsAgree(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := Random(seed, 200, Mixed)
		covP, err := g.MinimumPathCover(WithAlgorithm(Parallel), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		covS, err := g.MinimumPathCover(WithAlgorithm(Sequential))
		if err != nil {
			t.Fatal(err)
		}
		covN, err := g.MinimumPathCover(WithAlgorithm(Naive))
		if err != nil {
			t.Fatal(err)
		}
		if covP.NumPaths != covS.NumPaths || covS.NumPaths != covN.NumPaths {
			t.Fatalf("seed %d: paths %d/%d/%d", seed, covP.NumPaths, covS.NumPaths, covN.NumPaths)
		}
		for _, cov := range []*Cover{covP, covS, covN} {
			if err := g.Verify(cov.Paths); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if covP.NumPaths != g.MinPathCoverSize() {
			t.Fatalf("seed %d: count mismatch", seed)
		}
	}
}

func TestBuildersAndAdjacency(t *testing.T) {
	a, b, c := Vertex("a"), Vertex("b"), Vertex("c")
	g := Join(Union(a, b), c)
	if !g.Adjacent(0, 2) || !g.Adjacent(1, 2) || g.Adjacent(0, 1) {
		t.Fatal("join/union adjacency wrong")
	}
	co := Complement(g)
	if co.Adjacent(0, 2) || !co.Adjacent(0, 1) {
		t.Fatal("complement adjacency wrong")
	}
}

func TestFromEdges(t *testing.T) {
	// C4 = 0-1-2-3-0 is a cograph (K_{2,2}).
	g, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.NumEdges())
	}
	if _, ok := g.HamiltonianCycle(); !ok {
		t.Error("C4 should have a Hamiltonian cycle")
	}
	// P4 must be rejected.
	if _, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, nil); err == nil {
		t.Error("P4 accepted")
	}
	// Out-of-range edge.
	if _, err := FromEdges(2, [][2]int{{0, 5}}, nil); err == nil {
		t.Error("bad edge accepted")
	}
}

func TestHamiltonians(t *testing.T) {
	k5 := Clique(5)
	if p, ok := k5.HamiltonianPath(); !ok || len(p) != 5 {
		t.Error("K5 Hamiltonian path missing")
	}
	if c, ok := k5.HamiltonianCycle(); !ok || len(c) != 5 {
		t.Error("K5 Hamiltonian cycle missing")
	}
	if _, ok := Empty(4).HamiltonianPath(); ok {
		t.Error("empty graph has no Hamiltonian path")
	}
	if _, ok := Star(5).HamiltonianCycle(); ok {
		t.Error("star has no Hamiltonian cycle")
	}
}

func TestFamilies(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{Clique(7), 1},
		{Empty(7), 7},
		{CompleteBipartite(3, 7), 4},
		{CompleteBipartite(5, 5), 1},
		{UnionOfCliques(4, 3), 4},
		{Star(6), 4},
		{CompleteMultipartite(3, 3, 3), 1},
	}
	for i, c := range cases {
		cov, err := c.g.MinimumPathCover()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if cov.NumPaths != c.want {
			t.Errorf("case %d: %d paths want %d", i, cov.NumPaths, c.want)
		}
		if err := c.g.Verify(cov.Paths); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := Random(5, 5000, Mixed)
	cov, err := g.MinimumPathCover(WithProcessors(64), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if cov.Stats.Procs != 64 || cov.Stats.Time == 0 || cov.Stats.Work == 0 {
		t.Errorf("stats not populated: %+v", cov.Stats)
	}
}

func TestPublicAPIProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, shapeRaw uint8) bool {
		n := int(nRaw%250) + 1
		g := Random(seed, n, Shape(shapeRaw%3))
		cov, err := g.MinimumPathCover(WithSeed(seed))
		if err != nil {
			return false
		}
		return g.Verify(cov.Paths) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdGraphs(t *testing.T) {
	g := Threshold(11, 300)
	cov, err := g.MinimumPathCover()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(cov.Paths); err != nil {
		t.Fatal(err)
	}
}

// TestCotreeEdgeWalks checks the cotree-side edge count, edge list and
// forest test against the adjacency oracle and the edge-list backend.
func TestCotreeEdgeWalks(t *testing.T) {
	graphs := []*Graph{Star(9), Union(Star(4), Clique(2), Vertex("x")), CompleteBipartite(2, 3)}
	for n := 1; n <= 24; n++ {
		for shape := Shape(0); shape < 3; shape++ {
			graphs = append(graphs, Random(uint64(n), n, shape))
		}
	}
	for _, g := range graphs {
		n, m := g.N(), g.NumEdges()
		pairs := 0
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if g.Adjacent(x, y) {
					pairs++
				}
			}
		}
		edges := cotreeEdges(g.t, m)
		rg := backend.New(n, edges)
		if m != pairs || len(edges) != m || len(rg.Edges) != m {
			t.Fatalf("%s: NumEdges %d, cotreeEdges %d (%d distinct), oracle %d", g, m, len(edges), len(rg.Edges), pairs)
		}
		for _, e := range edges {
			if !g.Adjacent(e[0], e[1]) {
				t.Fatalf("%s: materialised non-edge %v", g, e)
			}
		}
		if g.IsForest() != rg.IsForest() {
			t.Fatalf("%s: IsForest %v, edge-list backend says %v", g, g.IsForest(), rg.IsForest())
		}
	}
}
