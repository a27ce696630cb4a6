package core

import (
	"math/rand/v2"
	"testing"

	"pathcover/internal/baseline"
	"pathcover/internal/pram"
)

// Heavy stress: hundreds of random cographs, validity + minimality.
// (A 2000-trial version of this test passed during development.)
func TestStressExchangeConvergence(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 99))
	s := pram.New(7, pram.WithGrain(16))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.IntN(400)
		tr := randomTree(rng, n)
		cov, err := ParallelCover(s, tr, Options{Seed: uint64(trial * 31)})
		if err != nil {
			t.Fatalf("trial %d n=%d: %v\ntree: %s", trial, n, err, tr)
		}
		checkCover(t, tr, cov.Paths)
		if want := len(baseline.Run(tr)); cov.NumPaths != want {
			t.Fatalf("trial %d: %d want %d", trial, cov.NumPaths, want)
		}
	}
}

// Track how many exchange rounds the pipeline needs.
func TestExchangeRoundCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 3))
	s := pram.NewSerial()
	maxSwaps := 0
	for trial := 0; trial < 300; trial++ {
		tr := randomTree(rng, 2+rng.IntN(1000))
		b := tr.Binarize(s)
		L := b.MakeLeftist(s, 0)
		tour := tourOf(s, b, 0)
		p := ComputePIx(s, b, L, tour)
		red := reduceIx(s, b, L, p, tour)
		seq := genBracketsIx(s, b, red, true)
		ps, err := buildPseudoIx(s, tr.NumVertices(), red, seq)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := fixIllegalIx(s, ps, red, uint64(trial))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sw > maxSwaps {
			maxSwaps = sw
		}
	}
	t.Logf("max total swaps over 300 trials: %d", maxSwaps)
}
