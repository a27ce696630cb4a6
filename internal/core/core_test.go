package core

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"pathcover/internal/baseline"
	"pathcover/internal/cograph"
	"pathcover/internal/cotree"
	"pathcover/internal/par"
	"pathcover/internal/pram"
)

func coreSims() []*pram.Sim {
	return []*pram.Sim{
		pram.NewSerial(),
		pram.New(4, pram.WithGrain(8)),
		pram.New(33, pram.WithGrain(8)),
	}
}

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

// checkCover verifies validity of a cover against the cotree's graph.
func checkCover(t *testing.T, tr *cotree.Tree, paths [][]int) {
	t.Helper()
	o := cotree.NewAdjOracle(tr)
	n := tr.NumVertices()
	seen := make([]bool, n)
	count := 0
	for _, p := range paths {
		if len(p) == 0 {
			t.Fatal("empty path")
		}
		for i, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("bad or repeated vertex %d in %v", v, paths)
			}
			seen[v] = true
			count++
			if i > 0 && !o.Adjacent(p[i-1], v) {
				t.Fatalf("non-edge (%s,%s) in path %v of cover %v\ntree: %s",
					tr.Name(p[i-1]), tr.Name(v), p, paths, tr)
			}
		}
	}
	if count != n {
		t.Fatalf("cover has %d vertices of %d", count, n)
	}
}

func TestComputePMatchesRecurrence(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, s := range coreSims() {
		for trial := 0; trial < 20; trial++ {
			tr := randomTree(rng, 2+rng.IntN(150))
			b := tr.Binarize(s)
			L := b.MakeLeftist(s, uint64(trial))
			tour := parTour(s, b, uint64(trial))
			got := ComputePIx(s, b, L, tour)
			want := baseline.PathCounts(b, L)
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("procs=%d trial=%d: p[%d]=%d want %d",
						s.Procs(), trial, u, got[u], want[u])
				}
			}
		}
	}
}

func parTour(s *pram.Sim, b *cotree.Bin, seed uint64) *parTourT { return tourOf(s, b, seed) }

// small indirection so tests read naturally.
type parTourT = par.TourIx[int32]

func tourOf(s *pram.Sim, b *cotree.Bin, seed uint64) *par.TourIx[int32] {
	return par.TourBinaryIx(s, b.BinTree, seed)
}

// Fig. 10 of the paper: cotree (1 (0 (1 a b) c) (0 d e f)) — a and c are
// primary, b, e, f inserts, d a bridge. Without dummy vertices the
// bracket sequence is exactly
//
//	a[ a( a( b) b( b( c[ c( c( d] d] d[ e) f) e( e( f( f(
func TestFig10Brackets(t *testing.T) {
	tr := cotree.MustParse("(1 (0 (1 a b) c) (0 d e f))")
	s := pram.NewSerial()
	b := tr.Binarize(s)
	L := b.MakeLeftist(s, 0)
	tour := tourOf(s, b, 0)
	p := ComputePIx(s, b, L, tour)
	red := reduceIx(s, b, L, p, tour)

	// Roles as stated by the paper.
	wantRole := map[string]Role{
		"a": RolePrimary, "c": RolePrimary,
		"b": RoleInsert, "e": RoleInsert, "f": RoleInsert,
		"d": RoleBridge,
	}
	nameOf := func(v int) string { return tr.Name(v) }
	for v := 0; v < 6; v++ {
		if red.Role[v] != wantRole[nameOf(v)] {
			t.Errorf("role(%s) = %v, want %v", nameOf(v), red.Role[v], wantRole[nameOf(v)])
		}
	}

	seq := genBracketsIx(s, b, red, false)
	got := seq.Annotated(func(id int) string {
		if id < 6 {
			return tr.Name(id)
		}
		return fmt.Sprintf("D%d", id-6)
	})
	want := "a[ a( a( b) b( b( c[ c( c( d] d] d[ e) f) e( e( f( f("
	if got != want {
		t.Errorf("bracket sequence:\n got %s\nwant %s", got, want)
	}
	if seq.String() != "[(()(([((]][))((((" {
		t.Errorf("raw brackets = %q", seq.String())
	}

	// The paper's matching for this sequence:
	//   a[-d], c[-d], a(-b), c(-f), c(-e)
	// Building the pseudo forest must reproduce the tree of Fig. 10:
	// d is the root with left child a, right child c; b is a's right
	// child; f is c's left child; e is c's right child.
	ps, err := buildPseudoIx(s, 6, red, seq)
	if err != nil {
		t.Fatal(err)
	}
	idx := func(name string) int32 {
		for v := 0; v < 6; v++ {
			if tr.Name(v) == name {
				return int32(v)
			}
		}
		t.Fatalf("no vertex %s", name)
		return -1
	}
	a, bb, c, d, e, f := idx("a"), idx("b"), idx("c"), idx("d"), idx("e"), idx("f")
	if ps.Parent[d] != -1 || ps.Left[d] != a || ps.Right[d] != c {
		t.Errorf("d: parent=%d left=%d right=%d", ps.Parent[d], ps.Left[d], ps.Right[d])
	}
	if ps.Right[a] != bb || ps.Left[c] != f || ps.Right[c] != e {
		t.Errorf("attachments wrong: a.r=%d c.l=%d c.r=%d", ps.Right[a], ps.Left[c], ps.Right[c])
	}
	// Inorder of this pseudo tree is a b d f c e — the paper notes d-f
	// (bridge next to insert of the same 1-node) is an illegal adjacency,
	// which is exactly why dummies exist.
	tour2 := par.TourBinaryIx(s, ps.BinTree, 1)
	order := make([]string, 6)
	for v := 0; v < 6; v++ {
		order[tour2.In[v]] = tr.Name(v)
	}
	wantOrder := [6]string{"a", "b", "d", "f", "c", "e"}
	for i, nm := range wantOrder {
		if order[i] != nm {
			t.Errorf("inorder[%d]=%s want %s (full %v)", i, order[i], nm, order)
		}
	}
}

// With dummies enabled, the same instance must produce a *valid* minimum
// path cover (Fig. 11's mechanism).
func TestFig11DummyExchange(t *testing.T) {
	tr := cotree.MustParse("(1 (0 (1 a b) c) (0 d e f))")
	for _, s := range coreSims() {
		cov, err := ParallelCover(s, tr, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		checkCover(t, tr, cov.Paths)
		if cov.NumPaths != 1 {
			t.Errorf("procs=%d: %d paths, want Hamiltonian", s.Procs(), cov.NumPaths)
		}
	}
}

// Without Step 6 the cover of the Fig. 10 instance must be invalid
// (demonstrates that the exchange is doing real work).
func TestFig9IllegalWithoutFix(t *testing.T) {
	tr := cotree.MustParse("(1 (0 (1 a b) c) (0 d e f))")
	s := pram.NewSerial()
	cov, err := ParallelCover(s, tr, Options{Seed: 1, WithoutDummy: true})
	if err != nil {
		t.Fatal(err)
	}
	o := cotree.NewAdjOracle(tr)
	valid := true
	for _, p := range cov.Paths {
		for i := 1; i < len(p); i++ {
			if !o.Adjacent(p[i-1], p[i]) {
				valid = false
			}
		}
	}
	if valid {
		t.Error("pseudo path tree without dummies happened to be valid; expected the d-f illegal adjacency")
	}
}

func TestParallelCoverKnownGraphs(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"(0 a b)", 2},
		{"(1 a b)", 1},
		{"(1 a b c d e)", 1},                     // K5
		{"(0 a b c d e)", 5},                     // empty
		{"(1 (0 a b c d e) f)", 4},               // star
		{"(1 (0 a b) (0 c d))", 1},               // C4
		{"(1 (0 a b c d) (0 s t u v w x y))", 3}, // K_{4,7}
		{"(0 (1 a b) (1 c d) (1 e f))", 3},
	}
	for _, s := range coreSims() {
		for _, c := range cases {
			tr := cotree.MustParse(c.src)
			cov, err := ParallelCover(s, tr, Options{Seed: 7})
			if err != nil {
				t.Fatalf("%s: %v", c.src, err)
			}
			checkCover(t, tr, cov.Paths)
			if cov.NumPaths != c.want {
				t.Errorf("procs=%d %s: %d paths want %d", s.Procs(), c.src, cov.NumPaths, c.want)
			}
		}
	}
}

func TestParallelCoverSingleVertex(t *testing.T) {
	s := pram.NewSerial()
	cov, err := ParallelCover(s, cotree.Single("x"), Options{})
	if err != nil || cov.NumPaths != 1 || len(cov.Paths[0]) != 1 {
		t.Fatalf("single vertex: %v %v", cov, err)
	}
}

// The central differential test: the parallel cover must be valid and
// exactly as small as the sequential baseline / brute force on random
// cographs.
func TestParallelCoverMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, s := range coreSims() {
		for trial := 0; trial < 60; trial++ {
			n := 2 + rng.IntN(120)
			tr := randomTree(rng, n)
			cov, err := ParallelCover(s, tr, Options{Seed: uint64(trial)})
			if err != nil {
				t.Fatalf("procs=%d trial=%d n=%d: %v\ntree: %s", s.Procs(), trial, n, err, tr)
			}
			checkCover(t, tr, cov.Paths)
			want := len(baseline.Run(tr))
			if cov.NumPaths != want {
				t.Fatalf("procs=%d trial=%d: %d paths, sequential %d\ntree: %s",
					s.Procs(), trial, cov.NumPaths, want, tr)
			}
		}
	}
}

func TestParallelCoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 1))
	s := pram.New(5, pram.WithGrain(4))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.IntN(10)
		tr := randomTree(rng, n)
		cov, err := ParallelCover(s, tr, Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v\ntree: %s", trial, err, tr)
		}
		checkCover(t, tr, cov.Paths)
		g := cograph.FromCotree(tr)
		if want := baseline.BruteMinPathCover(g); cov.NumPaths != want {
			t.Fatalf("trial %d: %d paths, brute %d\ntree: %s", trial, cov.NumPaths, want, tr)
		}
	}
}

// quick property: on arbitrary random cographs the pipeline yields a
// valid cover of exactly p(root) paths.
func TestParallelCoverProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, procs uint8) bool {
		n := int(nRaw%300) + 1
		rng := rand.New(rand.NewPCG(seed, 5))
		tr := randomTree(rng, n)
		s := pram.New(1+int(procs%8), pram.WithGrain(32))
		cov, err := ParallelCover(s, tr, Options{Seed: seed})
		if err != nil {
			return false
		}
		o := cotree.NewAdjOracle(tr)
		seen := make([]bool, n)
		cnt := 0
		for _, p := range cov.Paths {
			for i, v := range p {
				if v < 0 || v >= n || seen[v] {
					return false
				}
				seen[v] = true
				cnt++
				if i > 0 && !o.Adjacent(p[i-1], v) {
					return false
				}
			}
		}
		return cnt == n && cov.NumPaths == len(baseline.Run(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Fig. 5 shape: reduction flattens the right subtree of a 1-node.
func TestFig5Reduce(t *testing.T) {
	// 1-node over v = (union of two edges) and w = (join (0 x y) z): the
	// w side has structure that must be ignored: all 3 of its vertices
	// become bridges (p(v)=2 > L(w)=3 is false: 2 <= 3 -> case 2:
	// 1 bridge, 2 inserts, 2 dummies).
	tr := cotree.MustParse("(1 (0 (1 a b) (1 c d)) (0 x (1 y z)))")
	s := pram.NewSerial()
	b := tr.Binarize(s)
	L := b.MakeLeftist(s, 0)
	tour := tourOf(s, b, 0)
	p := ComputePIx(s, b, L, tour)
	red := reduceIx(s, b, L, p, tour)
	var nb, ni, nd int32
	actives := 0
	for u := 0; u < b.NumNodes(); u++ {
		if red.Active[u] && red.NB[u]+red.NI[u] == 3 {
			actives++
			nb, ni, nd = red.NB[u], red.NI[u], red.ND[u]
		}
	}
	if actives != 1 {
		t.Fatalf("%d active 1-nodes with |w|=3, want 1", actives)
	}
	if nb != 1 || ni != 2 || nd != 2 {
		t.Errorf("block = (%d bridges, %d inserts, %d dummies), want (1,2,2)", nb, ni, nd)
	}
	// The nested 1-node (y z) inside w must NOT be active.
	count := 0
	for u := 0; u < b.NumNodes(); u++ {
		if red.Active[u] {
			count++
		}
	}
	// active 1-nodes: (a b), (c d), root. Not (y z).
	if count != 3 {
		t.Errorf("%d active 1-nodes, want 3", count)
	}
	cov, err := ParallelCover(s, tr, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, tr, cov.Paths)
	if cov.NumPaths != 1 {
		t.Errorf("cover size %d want 1", cov.NumPaths)
	}
}

// Fig. 12 capacity: at every active case-2 node, inserts + dummies =
// L(w)+p(v)-1 <= L(v)+p(v)-1.
func TestFig12Capacity(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	s := pram.NewSerial()
	for trial := 0; trial < 40; trial++ {
		tr := randomTree(rng, 2+rng.IntN(80))
		b := tr.Binarize(s)
		L := b.MakeLeftist(s, 0)
		tour := tourOf(s, b, 0)
		p := ComputePIx(s, b, L, tour)
		red := reduceIx(s, b, L, p, tour)
		for u := 0; u < b.NumNodes(); u++ {
			if !red.Active[u] {
				continue
			}
			v, w := b.Left[u], b.Right[u]
			if red.NI[u]+red.ND[u] > L[v]+p[v]-1 && red.NI[u] > 0 {
				t.Fatalf("capacity violated at node %d: I+D=%d > L(v)+p(v)-1=%d",
					u, red.NI[u]+red.ND[u], L[v]+p[v]-1)
			}
			if red.NB[u]+red.NI[u] != L[w] {
				t.Fatalf("bridges+inserts %d != L(w) %d", red.NB[u]+red.NI[u], L[w])
			}
		}
	}
}

// Adversarial shapes.
func TestParallelCoverShapes(t *testing.T) {
	s := pram.New(8, pram.WithGrain(64))
	n := 500

	// K_n via a flat join.
	parts := make([]*cotree.Tree, n)
	for i := range parts {
		parts[i] = cotree.Single(fmt.Sprintf("k%d", i))
	}
	kn := cotree.Join(parts...)
	cov, err := ParallelCover(s, kn, Options{Seed: 1})
	if err != nil || cov.NumPaths != 1 {
		t.Fatalf("K_n: %v, err=%v", cov, err)
	}

	// Empty graph.
	en := cotree.Union(parts...)
	cov, err = ParallelCover(s, en, Options{Seed: 2})
	if err != nil || cov.NumPaths != n {
		t.Fatalf("empty: %d paths, err=%v", cov.NumPaths, err)
	}

	// Caterpillar of alternating union/join (deep cotree).
	cat := cotree.Single("c0")
	for i := 1; i < 300; i++ {
		leaf := cotree.Single(fmt.Sprintf("c%d", i))
		if i%2 == 0 {
			cat = cotree.Union(cat, leaf)
		} else {
			cat = cotree.Join(cat, leaf)
		}
	}
	cov, err = ParallelCover(s, cat, Options{Seed: 3})
	if err != nil {
		t.Fatalf("caterpillar: %v", err)
	}
	checkCover(t, cat, cov.Paths)
	if want := len(baseline.Run(cat)); cov.NumPaths != want {
		t.Fatalf("caterpillar: %d paths want %d", cov.NumPaths, want)
	}

	// Union of many K3s.
	tri := make([]*cotree.Tree, 100)
	for i := range tri {
		tri[i] = cotree.Join(
			cotree.Single(fmt.Sprintf("t%da", i)),
			cotree.Single(fmt.Sprintf("t%db", i)),
			cotree.Single(fmt.Sprintf("t%dc", i)))
	}
	tt := cotree.Union(tri...)
	cov, err = ParallelCover(s, tt, Options{Seed: 4})
	if err != nil || cov.NumPaths != 100 {
		t.Fatalf("triangles: %d paths, err=%v", cov.NumPaths, err)
	}
	checkCover(t, tt, cov.Paths)
}

func TestParallelCoverLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large test")
	}
	rng := rand.New(rand.NewPCG(10, 10))
	n := 50000
	tr := randomTree(rng, n)
	s := pram.New(pram.ProcsFor(n), pram.WithGrain(1024))
	cov, err := ParallelCover(s, tr, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, tr, cov.Paths)
	if want := len(baseline.Run(tr)); cov.NumPaths != want {
		t.Fatalf("%d paths want %d", cov.NumPaths, want)
	}
}

// TestCoverReleaseIdempotent pins the Release contract: double release
// must not hand the same buffer to the arena twice (the debug arena
// panics on that), nil receivers are no-ops, and the Sim stays usable.
func TestCoverReleaseIdempotent(t *testing.T) {
	tr := randomTree(rand.New(rand.NewPCG(11, 4)), 300)
	s := pram.New(pram.ProcsFor(300), pram.WithGrain(32))
	defer s.Close()
	s.Scratch().SetDebug(true)
	cov, err := ParallelCover(s, tr, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cov.Release(s)
	cov.Release(s) // second release: must be a no-op
	var nilCover *Cover
	nilCover.Release(s) // nil receiver: must be a no-op

	// The arena must still be coherent: another full run works.
	cov2, err := ParallelCover(s, tr, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, tr, cov2.Paths)
	cov2.Release(s)
	cov2.Release(s)
}

func TestStepTrace(t *testing.T) {
	tr := cotree.MustParse("(1 (0 (1 a b) c) (0 d e f))")
	s := pram.New(4, pram.WithGrain(8))
	trace := &StepTrace{}
	if _, err := ParallelCover(s, tr, Options{Seed: 1, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	if len(trace.Names) != 10 {
		t.Fatalf("trace has %d steps, want 10:\n%s", len(trace.Names), trace)
	}
	var total int64
	for _, tm := range trace.Time {
		total += tm
	}
	if total != s.Time() {
		t.Fatalf("trace time %d != sim time %d", total, s.Time())
	}
	out := trace.String()
	for _, want := range []string{"binarize", "contraction", "bracket", "exchange", "bypass", "extract"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}
