package par

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"pathcover/internal/pram"
)

func opensOf(s string) []bool {
	out := make([]bool, len(s))
	for i, c := range s {
		out[i] = c == '('
	}
	return out
}

func refMatch(open []bool) []int32 {
	match := make([]int32, len(open))
	matchSerial(open, match)
	return match
}

func checkMatch(t *testing.T, sim *pram.Sim, seq string) {
	t.Helper()
	open := opensOf(seq)
	got := MatchBracketsIx[int32](sim, open)
	want := refMatch(open)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("procs=%d seq=%q: match[%d]=%d want %d\ngot  %v\nwant %v",
				sim.Procs(), seq, i, got[i], want[i], got, want)
		}
	}
}

func TestMatchBracketsBasic(t *testing.T) {
	cases := []string{
		"",
		"()",
		")(",
		"(())",
		"()()",
		"(()())",
		"(((",
		")))",
		"))((",
		"())(",
		"(()))(()",
		"((((((((()))))))))",
		strings.Repeat("()", 50),
		strings.Repeat("(", 64) + strings.Repeat(")", 64),
		strings.Repeat(")", 30) + strings.Repeat("(", 30),
	}
	for _, sim := range sims() {
		for _, c := range cases {
			checkMatch(t, sim, c)
		}
	}
}

func TestMatchBracketsRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	for _, sim := range sims() {
		for _, n := range []int{1, 2, 10, 100, 1000, 5000} {
			for trial := 0; trial < 4; trial++ {
				var sb strings.Builder
				for i := 0; i < n; i++ {
					if rng.IntN(2) == 0 {
						sb.WriteByte('(')
					} else {
						sb.WriteByte(')')
					}
				}
				checkMatch(t, sim, sb.String())
			}
		}
	}
}

// Random *balanced* sequences exercise deep nesting across blocks.
func TestMatchBracketsBalancedRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 6))
	for _, sim := range sims() {
		for trial := 0; trial < 6; trial++ {
			var sb strings.Builder
			depth := 0
			for sb.Len() < 3000 {
				if depth == 0 || rng.IntN(2) == 0 {
					sb.WriteByte('(')
					depth++
				} else {
					sb.WriteByte(')')
					depth--
				}
			}
			for depth > 0 {
				sb.WriteByte(')')
				depth--
			}
			checkMatch(t, sim, sb.String())
		}
	}
}

func TestMatchBracketsInvolution(t *testing.T) {
	// match is a partial involution: match[match[i]] == i, partners have
	// opposite kinds, opens precede their closes.
	f := func(seed uint64, nRaw uint16, procs uint8) bool {
		n := int(nRaw%2000) + 1
		rng := rand.New(rand.NewPCG(seed, 41))
		open := make([]bool, n)
		for i := range open {
			open[i] = rng.IntN(2) == 0
		}
		sim := pram.New(1+int(procs%16), pram.WithGrain(16))
		m := MatchBracketsIx[int32](sim, open)
		want := refMatch(open)
		for i := 0; i < n; i++ {
			if m[i] != want[i] {
				return false
			}
			if m[i] >= 0 {
				if m[m[i]] != int32(i) || open[i] == open[m[i]] {
					return false
				}
				if open[i] && int(m[i]) < i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchBracketsCostBounds(t *testing.T) {
	n := 1 << 16
	rng := rand.New(rand.NewPCG(2, 9))
	open := make([]bool, n)
	for i := range open {
		open[i] = rng.IntN(2) == 0
	}
	s := pram.New(pram.ProcsFor(n), pram.WithGrain(1<<30))
	MatchBracketsIx[int32](s, open)
	lg := 16
	if s.Time() > int64(60*lg) {
		t.Errorf("bracket matching time %d exceeds 60 log n = %d", s.Time(), 60*lg)
	}
	if s.Work() > int64(60*n) {
		t.Errorf("bracket matching work %d exceeds 60n", s.Work())
	}
}
