package par

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pathcover/internal/pram"
)

// randomFullBinTree builds a single binary tree with m leaves in which
// every internal node has exactly two children (2m-1 nodes). Node ids are
// shuffled so that structure does not correlate with index order.
func randomFullBinTree(rng *rand.Rand, m int) (t BinTreeIx[int32], leaves []int) {
	n := 2*m - 1
	t = NewBinTreeIx[int32](n)
	ids := rng.Perm(n)
	// Build by repeatedly splitting leaf ranges (random binary structure).
	type job struct{ node, lo, hi int } // leaves lo..hi under node
	next := 0
	take := func() int { v := ids[next]; next++; return v }
	root := take()
	stack := []job{{root, 0, m - 1}}
	leaves = make([]int, m)
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if j.lo == j.hi {
			leaves[j.lo] = j.node
			continue
		}
		cut := j.lo + rng.IntN(j.hi-j.lo)
		l, r := take(), take()
		t.Left[j.node], t.Right[j.node] = int32(l), int32(r)
		t.Parent[l], t.Parent[r] = int32(j.node), int32(j.node)
		stack = append(stack, job{l, j.lo, cut}, job{r, cut + 1, j.hi})
	}
	return t, leaves
}

func serialEval(t BinTreeIx[int32], op []NodeOp, leafVal []int64, v int) int64 {
	if t.IsLeaf(v) {
		return leafVal[v]
	}
	l := serialEval(t, op, leafVal, int(t.Left[v]))
	r := serialEval(t, op, leafVal, int(t.Right[v]))
	return applyOp(op[v], l, r)
}

func randomOps(rng *rand.Rand, t BinTreeIx[int32]) ([]NodeOp, []int64) {
	n := t.Len()
	op := make([]NodeOp, n)
	leafVal := make([]int64, n)
	for v := 0; v < n; v++ {
		if t.IsLeaf(v) {
			leafVal[v] = 1
		} else if rng.IntN(2) == 0 {
			op[v] = NodeOp{Kind: OpSum}
		} else {
			op[v] = NodeOp{Kind: OpJoinClamp, C: int64(rng.IntN(6))}
		}
	}
	return op, leafVal
}

func TestEvalTreeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	for _, s := range sims() {
		for _, m := range []int{1, 2, 3, 8, 50, 400} {
			bt, _ := randomFullBinTree(rng, m)
			op, leafVal := randomOps(rng, bt)
			tour := TourBinaryIx(s, bt, 77)
			ranks, _ := tour.LeafRanks(s, bt)
			got := EvalTreeIx(s, bt, op, leafVal, ranks)
			for v := 0; v < bt.Len(); v++ {
				want := serialEval(bt, op, leafVal, v)
				if got[v] != want {
					t.Fatalf("procs=%d m=%d node %d: got %d want %d",
						s.Procs(), m, v, got[v], want)
				}
			}
		}
	}
}

func TestEvalTreeLeftChainDeep(t *testing.T) {
	// Caterpillar: internal spine of left children — the shape where the
	// naive bottom-up evaluation needs O(n) rounds but contraction stays
	// logarithmic.
	m := 1024
	n := 2*m - 1
	bt := NewBinTreeIx[int32](n)
	// internal nodes 0..m-2 chained by left pointers; leaves m-1..2m-2.
	for v := 0; v < m-1; v++ {
		leaf := m - 1 + v
		bt.Right[v] = int32(leaf)
		bt.Parent[leaf] = int32(v)
		if v < m-2 {
			bt.Left[v] = int32(v + 1)
			bt.Parent[v+1] = int32(v)
		} else {
			bt.Left[v] = int32(2*m - 2)
			bt.Parent[2*m-2] = int32(v)
		}
	}
	op := make([]NodeOp, n)
	leafVal := make([]int64, n)
	for v := 0; v < m-1; v++ {
		if v%3 == 0 {
			op[v] = NodeOp{Kind: OpJoinClamp, C: 2}
		} else {
			op[v] = NodeOp{Kind: OpSum}
		}
	}
	for v := m - 1; v < n; v++ {
		leafVal[v] = int64(v%4) + 1
	}
	s := pram.New(pram.ProcsFor(n), pram.WithGrain(64))
	tour := TourBinaryIx(s, bt, 13)
	ranks, _ := tour.LeafRanks(s, bt)
	got := EvalTreeIx(s, bt, op, leafVal, ranks)
	for _, v := range []int{0, 1, m / 2, m - 2} {
		want := serialEval(bt, op, leafVal, v)
		if got[v] != want {
			t.Fatalf("node %d: got %d want %d", v, got[v], want)
		}
	}
}

func TestEvalTreeSingleLeaf(t *testing.T) {
	s := pram.NewSerial()
	bt := NewBinTreeIx[int32](1)
	got := EvalTreeIx(s, bt, make([]NodeOp, 1), []int64{42}, []int32{0})
	if got[0] != 42 {
		t.Fatalf("single leaf value %d want 42", got[0])
	}
}

func TestMaxPlusAlgebra(t *testing.T) {
	// Composition law: (f.then(g)).Apply(x) == g.Apply(f.Apply(x)).
	f := func(fa, fb, ga, gb int16, x int16) bool {
		mf := MaxPlus{A: int64(fa), B: int64(fb)}
		mg := MaxPlus{A: int64(ga), B: int64(gb)}
		comp := mf.then(mg)
		return comp.Apply(int64(x)) == mg.Apply(mf.Apply(int64(x)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	id := idMaxPlus()
	if id.Apply(7) != 7 || id.Apply(-3) != -3 {
		t.Error("identity function broken")
	}
}

func TestEvalTreeProperty(t *testing.T) {
	f := func(seed uint64, mRaw uint16, procs uint8) bool {
		m := int(mRaw%200) + 1
		rng := rand.New(rand.NewPCG(seed, 31))
		bt, _ := randomFullBinTree(rng, m)
		op, leafVal := randomOps(rng, bt)
		s := pram.New(1+int(procs%10), pram.WithGrain(16))
		tour := TourBinaryIx(s, bt, seed)
		ranks, _ := tour.LeafRanks(s, bt)
		got := EvalTreeIx(s, bt, op, leafVal, ranks)
		for v := 0; v < bt.Len(); v++ {
			if got[v] != serialEval(bt, op, leafVal, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalTreeCostBounds(t *testing.T) {
	m := 1 << 13
	rng := rand.New(rand.NewPCG(5, 5))
	bt, _ := randomFullBinTree(rng, m)
	op, leafVal := randomOps(rng, bt)
	n := bt.Len()
	s := pram.New(pram.ProcsFor(n), pram.WithGrain(1<<30))
	tour := TourBinaryIx(s, bt, 3)
	ranks, _ := tour.LeafRanks(s, bt)
	s.Reset()
	EvalTreeIx(s, bt, op, leafVal, ranks)
	lg := 14
	if s.Time() > int64(100*lg) {
		t.Errorf("contraction time %d exceeds 100 log n", s.Time())
	}
	if s.Work() > int64(100*n) {
		t.Errorf("contraction work %d exceeds 100n", s.Work())
	}
}
