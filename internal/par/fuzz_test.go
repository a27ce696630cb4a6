package par

import (
	"testing"

	"pathcover/internal/pram"
)

// FuzzMatchBrackets: the parallel matcher must agree with the serial
// stack matcher on arbitrary byte-derived sequences, under an
// adversarial processor count derived from the input.
func FuzzMatchBrackets(f *testing.F) {
	f.Add([]byte("()()"), uint8(4))
	f.Add([]byte(")((("), uint8(1))
	f.Add([]byte("(()())((("), uint8(7))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, procs uint8) {
		open := make([]bool, len(data))
		for i, b := range data {
			open[i] = b%2 == 0
		}
		s := pram.New(1+int(procs%16), pram.WithGrain(4))
		got := MatchBracketsIx[int32](s, open)
		want := make([]int32, len(open))
		matchSerial(open, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("match[%d] = %d, want %d (n=%d procs=%d)",
					i, got[i], want[i], len(open), s.Procs())
			}
		}
	})
}

// FuzzScan: prefix sums against a serial loop.
func FuzzScan(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, procs uint8) {
		in := make([]int32, len(data))
		for i, b := range data {
			in[i] = int32(b) - 128
		}
		s := pram.New(1+int(procs%12), pram.WithGrain(2))
		out, total := ScanIx(s, in)
		acc := int32(0)
		for i := range in {
			if out[i] != acc {
				t.Fatalf("out[%d] = %d, want %d", i, out[i], acc)
			}
			acc += in[i]
		}
		if total != acc {
			t.Fatalf("total = %d, want %d", total, acc)
		}
	})
}
