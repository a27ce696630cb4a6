package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pathcover/internal/baseline"
	"pathcover/internal/cograph"
	"pathcover/internal/cotree"
	"pathcover/internal/par"
	"pathcover/internal/pram"
)

func checkCycleValid(t *testing.T, tr *cotree.Tree, cyc []int) {
	t.Helper()
	n := tr.NumVertices()
	if len(cyc) != n {
		t.Fatalf("cycle visits %d of %d vertices", len(cyc), n)
	}
	o := cotree.NewAdjOracle(tr)
	seen := make([]bool, n)
	for i, v := range cyc {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("bad vertex %d in cycle %v", v, cyc)
		}
		seen[v] = true
		if !o.Adjacent(cyc[i], cyc[(i+1)%n]) {
			t.Fatalf("cycle uses non-edge (%s,%s)\ntree: %s",
				tr.Name(cyc[i]), tr.Name(cyc[(i+1)%n]), tr)
		}
	}
}

func TestParallelHamiltonianPath(t *testing.T) {
	s := pram.New(4, pram.WithGrain(8))
	p, ok, err := ParallelHamiltonianPath(s, cotree.MustParse("(1 (0 a b) (0 c d))"), Options{Seed: 1})
	if err != nil || !ok || len(p) != 4 {
		t.Fatalf("C4 path: %v %v %v", p, ok, err)
	}
	_, ok, err = ParallelHamiltonianPath(s, cotree.MustParse("(0 a b)"), Options{Seed: 1})
	if err != nil || ok {
		t.Fatalf("disconnected pair should have no Hamiltonian path")
	}
}

func TestParallelHamiltonianCycleKnown(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"(1 a b c)", true},
		{"(1 a b)", false},
		{"(1 (0 a b) (0 c d))", true},
		{"(1 (0 a b c) d)", false},
		{"(0 (1 a b c) (1 d e f))", false},
		{"(1 (0 a b c) (0 d e f))", true},
	}
	for _, s := range coreSims() {
		for _, c := range cases {
			tr := cotree.MustParse(c.src)
			cyc, ok, err := ParallelHamiltonianCycle(s, tr, Options{Seed: 3})
			if err != nil {
				t.Fatalf("%s: %v", c.src, err)
			}
			if ok != c.want {
				t.Errorf("procs=%d %s: ok=%v want %v", s.Procs(), c.src, ok, c.want)
			}
			if ok {
				checkCycleValid(t, tr, cyc)
			}
		}
	}
}

// The parallel decision + construction must agree with the sequential
// one and with brute force.
func TestParallelHamiltonianCycleProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, procs uint8) bool {
		n := int(nRaw%9) + 1
		rng := rand.New(rand.NewPCG(seed, 555))
		tr := randomTree(rng, n)
		s := pram.New(1+int(procs%6), pram.WithGrain(16))
		cyc, ok, err := ParallelHamiltonianCycle(s, tr, Options{Seed: seed})
		if err != nil {
			return false
		}
		g := cograph.FromCotree(tr)
		if ok != baseline.BruteHasHamiltonianCycle(g) {
			return false
		}
		if ok {
			o := cotree.NewAdjOracle(tr)
			for i := range cyc {
				if !o.Adjacent(cyc[i], cyc[(i+1)%len(cyc)]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelHamiltonianCycleLarge(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 8))
	s := pram.New(8, pram.WithGrain(64))
	found := 0
	for trial := 0; trial < 30; trial++ {
		tr := randomTree(rng, 3+rng.IntN(500))
		cyc, ok, err := ParallelHamiltonianCycle(s, tr, Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bseq := pram.NewSerial()
		bb := tr.Binarize(bseq)
		LL := bb.MakeLeftist(bseq, 1)
		if ok != baseline.HasHamiltonianCycle(bb, LL) {
			t.Fatalf("trial %d: parallel %v, sequential %v", trial, ok,
				baseline.HasHamiltonianCycle(bb, LL))
		}
		if ok {
			found++
			checkCycleValid(t, tr, cyc)
		}
	}
	if found == 0 {
		t.Log("note: no Hamiltonian instances in this sample (fine, decision tested)")
	}
}

func TestExtractSubtree(t *testing.T) {
	tr := cotree.MustParse("(0 (1 a b c) (1 d (0 e f)))")
	s := pram.NewSerial()
	b := tr.Binarize(s)
	b.MakeLeftist(s, 1)
	tour := par.TourBinaryIx(s, b.BinTree, 1)
	// Extract the subtree holding {a,b,c} (a K3).
	_, leaves := tour.SubtreeCounts(s, b.BinTree)
	for u := 0; u < b.NumNodes(); u++ {
		if b.IsLeaf(u) || leaves[u] != 3 {
			continue
		}
		sub, toSub, fromSub := extractSubtreeIx(s, b, u, tour)
		if sub.NumVertices() != 3 || sub.NumNodes() != 5 {
			t.Fatalf("extracted %d vertices / %d nodes", sub.NumVertices(), sub.NumNodes())
		}
		if int(toSub[u]) != sub.Root || sub.Parent[sub.Root] != -1 {
			t.Fatal("root mapping broken")
		}
		// All extracted vertices map to {a,b,c} or {d,e,f} consistently.
		for _, ov := range fromSub {
			if ov < 0 || ov >= 6 {
				t.Fatalf("bad vertex mapping %v", fromSub)
			}
		}
		// The extracted K3 must have a 1-path cover.
		subL := sub.MakeLeftist(s, 1)
		paths := baseline.SequentialCover(sub, subL)
		if len(paths) != 1 {
			t.Fatalf("extracted K3 cover: %v", paths)
		}
	}
}
