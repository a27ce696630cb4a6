// PRAM primitives: the toolbox of the paper's Lemmas 5.1 and 5.2 on the
// cost simulator, and the EREW access auditor at work.
package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"pathcover/internal/par"
	"pathcover/internal/pram"
	"pathcover/internal/workload"
)

func main() {
	fmt.Println("Lemma 5.1/5.2 primitives with p = n/log n simulated processors.")
	fmt.Println("O(log n) time <=> flat time/log n; O(n) work <=> flat work/n.")
	fmt.Printf("\n%-24s %10s %10s %12s %10s\n", "primitive", "n", "time", "time/log n", "work/n")

	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		rng := rand.New(rand.NewPCG(1, uint64(n)))
		lg := math.Log2(float64(n))
		report := func(name string, s *pram.Sim) {
			fmt.Printf("%-24s %10d %10d %12.1f %10.1f\n",
				name, n, s.Time(), float64(s.Time())/lg, float64(s.Work())/float64(n))
		}

		data := make([]int32, n)
		for i := range data {
			data[i] = int32(rng.IntN(10))
		}
		s := pram.New(pram.ProcsFor(n))
		par.ScanIx(s, data)
		report("prefix sums", s)

		next := make([]int32, n)
		for i := 0; i < n-1; i++ {
			next[i] = int32(i + 1)
		}
		next[n-1] = -1
		s = pram.New(pram.ProcsFor(n))
		par.RankOptIx(s, next, 7)
		report("list ranking", s)

		open := make([]bool, n)
		for i := range open {
			open[i] = rng.IntN(2) == 0
		}
		s = pram.New(pram.ProcsFor(n))
		par.MatchBracketsIx[int32](s, open)
		report("bracket matching", s)

		t := workload.Random(3, n, workload.Mixed)
		setup := pram.NewSerial()
		bin := t.Binarize(setup)
		s = pram.New(pram.ProcsFor(n))
		tour := par.TourBinaryIx(s, bin.BinTree, 5)
		tour.SubtreeCounts(s, bin.BinTree)
		report("euler tour + counts", s)
		fmt.Println()
	}

	// The auditor: the same reduction kernel under three disciplines.
	fmt.Println("EREW auditor: a max-reduction where all processors read cell 0:")
	for _, model := range []pram.Model{pram.EREW, pram.CREW, pram.CRCW} {
		m := pram.NewMachine(8, model)
		a := m.NewIntArray(8)
		m.Step(func(p int) { a.Write(p, p, p*p%13) })
		m.Step(func(p int) { _ = a.Read(p, 0) }) // concurrent read!
		fmt.Printf("  %s: violations=%d\n", model, len(m.Violations()))
	}
	fmt.Println("(EREW flags it, CREW and CRCW accept it — the paper's\n" +
		" algorithm never needs concurrent access, which is what makes it EREW.)")
}
