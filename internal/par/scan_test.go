package par

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pathcover/internal/pram"
)

func sims() []*pram.Sim {
	return []*pram.Sim{
		pram.NewSerial(),
		pram.New(4, pram.WithGrain(8)),
		pram.New(37, pram.WithGrain(8)),
		pram.New(pram.ProcsFor(1<<14), pram.WithGrain(64)),
	}
}

func TestScanIntMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, s := range sims() {
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 4097} {
			in := make([]int32, n)
			for i := range in {
				in[i] = int32(rng.IntN(100) - 50)
			}
			got, total := ScanIx(s, in)
			acc := int32(0)
			for i := 0; i < n; i++ {
				if got[i] != acc {
					t.Fatalf("procs=%d n=%d: out[%d]=%d want %d", s.Procs(), n, i, got[i], acc)
				}
				acc += in[i]
			}
			if total != acc {
				t.Fatalf("procs=%d n=%d: total=%d want %d", s.Procs(), n, total, acc)
			}
		}
	}
}

func TestInclusiveScan(t *testing.T) {
	s := pram.New(5, pram.WithGrain(4))
	in := []int{3, -1, 4, 1, -5, 9}
	got := InclusiveScan(s, in, 0, func(a, b int) int { return a + b })
	want := []int{3, 2, 6, 7, 2, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inclusive[%d]=%d want %d", i, got[i], want[i])
		}
	}
}

func TestMaxScanInt(t *testing.T) {
	s := pram.New(3, pram.WithGrain(2))
	in := []int32{2, 1, 5, 3, 5, 7, 0}
	got := MaxScanIx(s, in)
	want := []int32{2, 2, 5, 5, 5, 7, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("maxscan[%d]=%d want %d", i, got[i], want[i])
		}
	}
}

func TestReduce(t *testing.T) {
	s := pram.New(8, pram.WithGrain(4))
	in := make([]int, 1000)
	for i := range in {
		in[i] = i
	}
	if got := Reduce(s, in, 0, func(a, b int) int { return a + b }); got != 999*1000/2 {
		t.Fatalf("Reduce = %d", got)
	}
}

// Property: scan with a non-commutative op (string-like concatenation
// simulated by pairs) still respects order. We use 2x2 integer matrices
// mod a prime, which are associative but not commutative.
func TestScanNonCommutativeProperty(t *testing.T) {
	type mat [4]int64
	const p = 1000003
	mul := func(a, b mat) mat {
		return mat{
			(a[0]*b[0] + a[1]*b[2]) % p, (a[0]*b[1] + a[1]*b[3]) % p,
			(a[2]*b[0] + a[3]*b[2]) % p, (a[2]*b[1] + a[3]*b[3]) % p,
		}
	}
	id := mat{1, 0, 0, 1}
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewPCG(seed, 7))
		in := make([]mat, n)
		for i := range in {
			in[i] = mat{rng.Int64N(p), rng.Int64N(p), rng.Int64N(p), rng.Int64N(p)}
		}
		s := pram.New(1+int(seed%9), pram.WithGrain(4))
		out, total := Scan(s, in, id, mul)
		acc := id
		for i := 0; i < n; i++ {
			if out[i] != acc {
				return false
			}
			acc = mul(acc, in[i])
		}
		return total == acc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestScanCostBounds(t *testing.T) {
	// With p = n/log n processors a scan must cost O(log n) time.
	n := 1 << 16
	s := pram.New(pram.ProcsFor(n), pram.WithGrain(1<<20))
	in := make([]int32, n)
	ScanIx(s, in)
	lg := 16
	if s.Time() > int64(12*lg) {
		t.Errorf("scan time %d exceeds 12*log n = %d", s.Time(), 12*lg)
	}
	if s.Work() > int64(12*n) {
		t.Errorf("scan work %d exceeds 12n = %d", s.Work(), 12*n)
	}
}

func TestPackAndIndexPack(t *testing.T) {
	for _, s := range sims() {
		in := []int{10, 11, 12, 13, 14, 15}
		keep := []bool{true, false, true, true, false, true}
		got := PackIx[int32](s, in, keep)
		want := []int{10, 12, 13, 15}
		if len(got) != len(want) {
			t.Fatalf("procs=%d: Pack len %d want %d", s.Procs(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("procs=%d: Pack[%d]=%d want %d", s.Procs(), i, got[i], want[i])
			}
		}
		idx := IndexPackIx[int32](s, keep)
		wantIdx := []int32{0, 2, 3, 5}
		for i := range wantIdx {
			if idx[i] != wantIdx[i] {
				t.Fatalf("IndexPack[%d]=%d want %d", i, idx[i], wantIdx[i])
			}
		}
	}
}

func TestPackEmpty(t *testing.T) {
	s := pram.NewSerial()
	if got := PackIx[int32](s, []int{}, []bool{}); len(got) != 0 {
		t.Fatal("Pack of empty not empty")
	}
	if got := PackIx[int32](s, []int{1, 2}, []bool{false, false}); len(got) != 0 {
		t.Fatal("Pack of all-false not empty")
	}
}

func TestDistribute(t *testing.T) {
	for _, s := range sims() {
		lengths := []int32{3, 0, 2, 1, 0, 4}
		owner, offset, total := DistributeIx(s, lengths)
		if total != 10 {
			t.Fatalf("total=%d want 10", total)
		}
		wantOwner := []int32{0, 0, 0, 2, 2, 3, 5, 5, 5, 5}
		wantOff := []int32{0, 1, 2, 0, 1, 0, 0, 1, 2, 3}
		for i := 0; i < total; i++ {
			if owner[i] != wantOwner[i] || offset[i] != wantOff[i] {
				t.Fatalf("procs=%d item %d: owner=%d off=%d want %d/%d",
					s.Procs(), i, owner[i], offset[i], wantOwner[i], wantOff[i])
			}
		}
	}
}

func TestDistributeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := int(nRaw%40) + 1
		lens := make([]int32, n)
		for i := range lens {
			lens[i] = int32(rng.IntN(5))
		}
		s := pram.New(1+int(seed%7), pram.WithGrain(2))
		owner, offset, total := DistributeIx(s, lens)
		sum := 0
		for _, l := range lens {
			sum += int(l)
		}
		if total != sum {
			return false
		}
		t := 0
		for g, l := range lens {
			for k := int32(0); k < l; k++ {
				if owner[t] != int32(g) || offset[t] != k {
					return false
				}
				t++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
