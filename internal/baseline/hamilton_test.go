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

// checkCycle validates a Hamiltonian cycle (local helper; the verify
// package cannot be imported here without a cycle).
func checkCycle(tr *cotree.Tree, cyc []int) error {
	n := tr.NumVertices()
	if len(cyc) != n || n < 3 {
		return fmt.Errorf("cycle visits %d of %d vertices", len(cyc), n)
	}
	o := cotree.NewAdjOracle(tr)
	seen := make([]bool, n)
	for i, v := range cyc {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("bad vertex %d", v)
		}
		seen[v] = true
		if !o.Adjacent(cyc[i], cyc[(i+1)%n]) {
			return fmt.Errorf("non-edge (%s,%s)", tr.Name(cyc[i]), tr.Name(cyc[(i+1)%n]))
		}
	}
	return nil
}

func prep(tr *cotree.Tree) (*cotree.Bin, []int32) {
	s := pram.NewSerial()
	b := tr.Binarize(s)
	L := b.MakeLeftist(s, 1)
	return b, L
}

func TestHamiltonianPathKnown(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"a", true},
		{"(0 a b)", false},
		{"(1 a b)", true},
		{"(1 a b c d)", true},
		{"(0 (1 a b) (1 c d))", false},
		{"(1 (0 a b) (0 c d))", true}, // C4
		{"(1 (0 a b c d) e)", false},  // star K_{1,4}
	}
	for _, c := range cases {
		b, L := prep(cotree.MustParse(c.src))
		if got := HasHamiltonianPath(b, L); got != c.want {
			t.Errorf("%s: HasHamiltonianPath=%v want %v", c.src, got, c.want)
		}
		path, ok := HamiltonianPath(b, L)
		if ok != c.want {
			t.Errorf("%s: HamiltonianPath ok=%v want %v", c.src, ok, c.want)
		}
		if ok && len(path) != b.NumVertices() {
			t.Errorf("%s: path covers %d of %d", c.src, len(path), b.NumVertices())
		}
	}
}

func TestHamiltonianCycleKnown(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"a", false},
		{"(1 a b)", false},                   // K2: no cycle
		{"(1 a b c)", true},                  // K3
		{"(1 (0 a b) (0 c d))", true},        // C4
		{"(1 (0 a b c) d)", false},           // star K_{1,3}
		{"(0 (1 a b c) (1 d e f))", false},   // disconnected
		{"(1 (0 a b c) (0 d e f))", true},    // K_{3,3}
		{"(1 (0 a b c d) (0 e f g))", false}, // K_{4,3}: unbalanced bipartite
	}
	for _, c := range cases {
		tr := cotree.MustParse(c.src)
		b, L := prep(tr)
		if got := HasHamiltonianCycle(b, L); got != c.want {
			t.Errorf("%s: HasHamiltonianCycle=%v want %v", c.src, got, c.want)
		}
		cyc, ok := HamiltonianCycle(b, L)
		if ok != c.want {
			t.Errorf("%s: HamiltonianCycle ok=%v", c.src, ok)
		}
		if ok {
			if err := checkCycle(tr, cyc); err != nil {
				t.Errorf("%s: invalid cycle %v: %v", c.src, cyc, err)
			}
		}
	}
}

// The decision procedure must agree with brute force on all small random
// cographs, and constructed cycles must verify.
func TestHamiltonianCycleMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		rng := rand.New(rand.NewPCG(seed, 77))
		tr := randomTree(rng, n)
		b, L := prep(tr)
		got := HasHamiltonianCycle(b, L)
		g := cograph.FromCotree(tr)
		want := BruteHasHamiltonianCycle(g)
		if got != want {
			return false
		}
		if got {
			cyc, ok := HamiltonianCycle(b, L)
			if !ok || checkCycle(tr, cyc) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestHamiltonianCycleLarge(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	for trial := 0; trial < 40; trial++ {
		tr := randomTree(rng, 3+rng.IntN(300))
		b, L := prep(tr)
		cyc, ok := HamiltonianCycle(b, L)
		if ok {
			if err := checkCycle(tr, cyc); err != nil {
				t.Fatalf("trial %d: %v\ntree %s", trial, err, tr)
			}
		}
	}
}

func TestCoverSubtree(t *testing.T) {
	tr := cotree.MustParse("(0 (1 a b c) (1 d e))")
	b, L := prep(tr)
	// Find the internal node holding the K3 {a,b,c}.
	for u := 0; u < b.NumNodes(); u++ {
		if !b.IsLeaf(u) && L[u] == 3 {
			paths := CoverSubtree(b, L, u)
			if len(paths) != 1 || len(paths[0]) != 3 {
				t.Fatalf("K3 subtree cover = %v", paths)
			}
		}
	}
}
