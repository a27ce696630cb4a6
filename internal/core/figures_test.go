package core

import (
	"testing"

	"pathcover/internal/cotree"
	"pathcover/internal/par"
	"pathcover/internal/pram"
)

// Fig. 6: a path tree is a binary tree whose inorder traversal is the
// path. Build one explicitly and read the path off the Euler tour.
func TestFig6PathTree(t *testing.T) {
	// Path tree over 7 vertices:
	//        3
	//      /   \
	//     1     5
	//    / \   / \
	//   0   2 4   6
	// inorder = 0 1 2 3 4 5 6.
	bt := par.NewBinTreeIx[int32](7)
	link := func(p, l, r int32) {
		bt.Left[p], bt.Right[p] = l, r
		bt.Parent[l], bt.Parent[r] = p, p
	}
	link(3, 1, 5)
	link(1, 0, 2)
	link(5, 4, 6)
	s := pram.New(3, pram.WithGrain(2))
	paths, _ := extractPathsIx(s, bt, 9)
	if len(paths) != 1 {
		t.Fatalf("%d trees, want 1", len(paths))
	}
	for i, v := range paths[0] {
		if v != int32(i) {
			t.Fatalf("inorder = %v, want 0..6", paths[0])
		}
	}
}

// Fig. 7 (Case 1, p(v) > L(w)): the L(w) vertices of G(w) become a
// bridge chain whose leaves are path-tree roots; inorder alternates
// trees and bridges. Instance: join(empty_5, empty_2): p(v)=5 roots,
// L(w)=2 bridges, resulting in 5-2 = 3 paths, one of which interleaves
// three singleton trees with the two bridges.
func TestFig7Case1(t *testing.T) {
	tr := cotree.MustParse("(1 (0 a b c d e) (0 x y))")
	s := pram.NewSerial()
	b := tr.Binarize(s)
	L := b.MakeLeftist(s, 0)
	tour := tourOf(s, b, 0)
	p := ComputePIx(s, b, L, tour)
	red := reduceIx(s, b, L, p, tour)

	// Both w-vertices are bridges; no inserts, no dummies (Case 1).
	var nb, ni, nd int32
	for u := 0; u < b.NumNodes(); u++ {
		if red.Active[u] {
			nb += red.NB[u]
			ni += red.NI[u]
			nd += red.ND[u]
		}
	}
	if nb != 2 || ni != 0 || nd != 0 {
		t.Fatalf("case 1 block = (%d,%d,%d), want (2,0,0)", nb, ni, nd)
	}

	seq := genBracketsIx(s, b, red, true)
	ps, err := buildPseudoIx(s, 6+1, red, seq)
	if err != nil {
		t.Fatal(err)
	}
	paths, _ := extractPathsIx(s, bypassIx(s, ps, red, 1), 2)
	if len(paths) != 3 {
		t.Fatalf("%d paths, want 3 (p(v)-L(w) = 5-2)", len(paths))
	}
	// One path has 5 vertices (3 leaves + 2 bridges, alternating
	// v-side / w-side), the other two are singletons.
	lens := map[int]int{}
	for _, p := range paths {
		lens[len(p)]++
	}
	if lens[5] != 1 || lens[1] != 2 {
		t.Fatalf("path lengths %v, want one 5 and two 1s", lens)
	}
	// In the 5-path, w-vertices (bridges) sit at the even gaps:
	// v w v w v.
	for _, p := range paths {
		if len(p) != 5 {
			continue
		}
		for i, v := range p {
			isBridge := red.Role[v] == RoleBridge
			if (i%2 == 1) != isBridge {
				t.Fatalf("bridge placement wrong in %v at %d", p, i)
			}
		}
	}
}

// Fig. 8 (Case 2, p(v) <= L(w)): p(v)-1 bridges chain all path trees
// into one; the remaining w-vertices are inserted as leaves, giving a
// Hamiltonian path.
func TestFig8Case2(t *testing.T) {
	// G(v) = union of 4 edges (p=4, L=8); G(w) = empty_5 (L=5 >= 4).
	tr := cotree.MustParse("(1 (0 (1 a b) (1 c d) (1 e f) (1 g h)) (0 s t u v w))")
	s := pram.NewSerial()
	b := tr.Binarize(s)
	L := b.MakeLeftist(s, 0)
	tour := tourOf(s, b, 0)
	p := ComputePIx(s, b, L, tour)
	red := reduceIx(s, b, L, p, tour)

	// The root block: 3 bridges, 2 inserts, 6 dummies (2p(v)-2).
	found := false
	for u := 0; u < b.NumNodes(); u++ {
		if red.Active[u] && red.NB[u]+red.NI[u] == 5 {
			found = true
			if red.NB[u] != 3 || red.NI[u] != 2 || red.ND[u] != 6 {
				t.Fatalf("root block = (%d,%d,%d), want (3,2,6)",
					red.NB[u], red.NI[u], red.ND[u])
			}
		}
	}
	if !found {
		t.Fatal("no active 1-node with |w| = 5")
	}

	cov, err := ParallelCover(s, tr, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, tr, cov.Paths)
	if cov.NumPaths != 1 {
		t.Fatalf("case 2 must give a Hamiltonian path, got %d paths", cov.NumPaths)
	}
}
