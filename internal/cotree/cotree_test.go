package cotree

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"pathcover/internal/pram"
)

// randomTree builds a random canonical cotree with n leaves.
func randomTree(rng *rand.Rand, n int, rootLabel int8) *Tree {
	if n == 1 {
		return Single(fmt.Sprintf("v%d", rng.IntN(1<<30)))
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
	childLabel := Label0
	if rootLabel == Label0 {
		childLabel = Label1
	}
	parts := make([]*Tree, k)
	for i := range parts {
		parts[i] = randomTree(rng, sizes[i], childLabel)
	}
	if rootLabel == Label1 {
		return Join(parts...)
	}
	return Union(parts...)
}

func TestSingleValidates(t *testing.T) {
	s := Single("x")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 1 || s.Name(0) != "x" {
		t.Fatal("single vertex wrong")
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	cases := []string{
		"a",
		"(0 a b)",
		"(1 a b c)",
		"(0 (1 a b) c)",
		"(1 (0 a (1 b c)) (0 d e) f)",
		"(0 x (1 y z) (1 p q r))",
	}
	for _, src := range cases {
		tr, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := tr.String(); got != src {
			t.Errorf("round trip %q -> %q", src, got)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("Parse(%q) invalid: %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(",
		"()",
		"(2 a b)",
		"(0 a)",         // single child violates property (4)
		"(0 a b",        // missing close
		"(0 (0 a b) c)", // labels do not alternate
		"a b",           // trailing input
		")",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestUnionJoinMerging(t *testing.T) {
	// Union of 0-rooted trees must merge roots (canonical form).
	u1 := Union(Single("a"), Single("b"))
	u2 := Union(u1, Single("c"))
	if got := len(u2.Children[u2.Root]); got != 3 {
		t.Errorf("merged union root has %d children, want 3", got)
	}
	j := Join(u2, Single("d"))
	if j.Label[j.Root] != Label1 {
		t.Error("join root not a 1-node")
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComplementInvolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 20; trial++ {
		tr := randomTree(rng, 1+rng.IntN(30), Label1)
		cc := Complement(Complement(tr))
		if tr.String() != cc.String() {
			t.Fatalf("double complement changed tree:\n%s\n%s", tr, cc)
		}
	}
}

func TestComplementFlipsAdjacency(t *testing.T) {
	tr := MustParse("(1 (0 a b) c)")
	co := Complement(tr)
	o1 := NewAdjOracle(tr)
	o2 := NewAdjOracle(co)
	for x := 0; x < 3; x++ {
		for y := x + 1; y < 3; y++ {
			if o1.Adjacent(x, y) == o2.Adjacent(x, y) {
				t.Errorf("complement did not flip edge {%d,%d}", x, y)
			}
		}
	}
}

func TestOracleKnownGraph(t *testing.T) {
	// (1 (0 a b) c): join of {a,b} (no edge) with c -> edges ac, bc.
	tr := MustParse("(1 (0 a b) c)")
	o := NewAdjOracle(tr)
	if o.Adjacent(0, 1) {
		t.Error("a-b adjacent, want not")
	}
	if !o.Adjacent(0, 2) || !o.Adjacent(1, 2) {
		t.Error("a-c or b-c not adjacent")
	}
	if o.Adjacent(0, 0) {
		t.Error("self adjacency")
	}
	if o.Degree(2) != 2 {
		t.Errorf("deg(c)=%d want 2", o.Degree(2))
	}
}

func TestCliqueAndEmpty(t *testing.T) {
	// K_5 as nested joins, empty graph as union.
	parts := make([]*Tree, 5)
	for i := range parts {
		parts[i] = Single(fmt.Sprintf("k%d", i))
	}
	k5 := Join(parts...)
	o := NewAdjOracle(k5)
	for x := 0; x < 5; x++ {
		if o.Degree(x) != 4 {
			t.Errorf("K5 degree(%d)=%d", x, o.Degree(x))
		}
	}
	e5 := Union(parts...)
	oe := NewAdjOracle(e5)
	for x := 0; x < 5; x++ {
		if oe.Degree(x) != 0 {
			t.Errorf("empty graph degree(%d)=%d", x, oe.Degree(x))
		}
	}
}

// binAdjacent answers adjacency on a binarized cotree by walking to the
// LCA with parent pointers (slow reference).
func binAdjacent(b *Bin, x, y int) bool {
	if x == y {
		return false
	}
	anc := map[int32]bool{}
	for v := b.LeafOf[x]; v >= 0; v = b.Parent[v] {
		anc[v] = true
	}
	for v := b.LeafOf[y]; v >= 0; v = b.Parent[v] {
		if anc[v] {
			return b.One[v]
		}
	}
	return false
}

func TestBinarizePreservesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	s := pram.New(4, pram.WithGrain(8))
	for trial := 0; trial < 25; trial++ {
		tr := randomTree(rng, 1+rng.IntN(40), Label0)
		o := NewAdjOracle(tr)
		b := tr.Binarize(s)
		n := tr.NumVertices()
		// structural: every internal node has exactly two children
		for v := 0; v < b.NumNodes(); v++ {
			l, r := b.Left[v], b.Right[v]
			if (l < 0) != (r < 0) {
				t.Fatalf("binarized node %d has one child", v)
			}
		}
		if b.NumNodes() != 2*n-1 {
			t.Fatalf("binarized tree has %d nodes for %d vertices, want %d",
				b.NumNodes(), n, 2*n-1)
		}
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if o.Adjacent(x, y) != binAdjacent(b, x, y) {
					t.Fatalf("trial %d: adjacency of (%d,%d) changed by binarization\n%s",
						trial, x, y, tr)
				}
			}
		}
	}
}

func TestMakeLeftist(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	s := pram.New(4, pram.WithGrain(8))
	for trial := 0; trial < 25; trial++ {
		tr := randomTree(rng, 2+rng.IntN(60), Label1)
		o := NewAdjOracle(tr)
		b := tr.Binarize(s)
		L := b.MakeLeftist(s, uint64(trial))
		if !b.IsLeftist(s, L) {
			t.Fatal("MakeLeftist did not produce a leftist tree")
		}
		if int(L[b.Root]) != tr.NumVertices() {
			t.Fatalf("L(root)=%d want %d", L[b.Root], tr.NumVertices())
		}
		n := tr.NumVertices()
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if o.Adjacent(x, y) != binAdjacent(b, x, y) {
					t.Fatalf("leftist reorder changed adjacency of (%d,%d)", x, y)
				}
			}
		}
	}
}

// Fig. 3 of the paper: binarizing a k-ary node yields a left chain u1..
// u_{k-1} where u1 holds v1,v2 and u_i holds u_{i-1}, v_{i+1}.
func TestFig3Binarize(t *testing.T) {
	tr := MustParse("(1 a b c d e)")
	s := pram.NewSerial()
	b := tr.Binarize(s)
	// 5 leaves, 4 chain nodes; root = top of chain.
	if b.NumNodes() != 9 {
		t.Fatalf("nodes=%d want 9", b.NumNodes())
	}
	// Walk down the left spine: each right child must be a leaf e,d,c,
	// then the last left pair a,b.
	v := int32(b.Root)
	var rights []int32
	for b.Left[v] >= 0 {
		if !b.One[v] {
			t.Fatal("chain node lost its 1-label")
		}
		rights = append(rights, b.Right[v])
		v = b.Left[v]
	}
	if len(rights) != 4 {
		t.Fatalf("chain length %d want 4", len(rights))
	}
	// rights are leaves e, d, c, b (vertex ids 4,3,2,1); v is leaf a.
	want := []int32{4, 3, 2, 1}
	for i, r := range rights {
		if b.VertexOf[r] != want[i] {
			t.Fatalf("right[%d] is vertex %d want %d", i, b.VertexOf[r], want[i])
		}
	}
	if b.VertexOf[v] != 0 {
		t.Fatalf("bottom of chain is vertex %d want 0", b.VertexOf[v])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := MustParse("(0 a (1 b c))")
	tr.Parent[1] = 2 // break a link
	if err := tr.Validate(); err == nil {
		t.Error("corrupted parent not caught")
	}
	tr2 := MustParse("(0 a (1 b c))")
	tr2.Label[0] = Label1 // root label 1 with child label 1: not alternating
	if err := tr2.Validate(); err == nil {
		t.Error("non-alternating labels not caught")
	}
}

func TestRandomTreeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewPCG(seed, 9))
		tr := randomTree(rng, n, Label1)
		if tr.Validate() != nil || tr.NumVertices() != n {
			return false
		}
		// Parse(String) is an identity on canonical trees.
		back, err := Parse(tr.String())
		if err != nil {
			return false
		}
		return back.String() == tr.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBigBinarize(t *testing.T) {
	// A star-like cotree with one huge 1-node stresses the parallel chain
	// allocation.
	var sb strings.Builder
	sb.WriteString("(1")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, " x%d", i)
	}
	sb.WriteString(")")
	tr := MustParse(sb.String())
	s := pram.New(pram.ProcsFor(5000), pram.WithGrain(64))
	b := tr.Binarize(s)
	if b.NumNodes() != 2*5000-1 {
		t.Fatalf("nodes=%d", b.NumNodes())
	}
	L := b.MakeLeftist(s, 3)
	if L[b.Root] != 5000 {
		t.Fatalf("L(root)=%d", L[b.Root])
	}
}
