package cotree

import (
	"strings"
	"testing"
)

// FuzzParse: the parser must never panic, and any accepted input must
// produce a validating tree that round-trips through String. The
// differential target (scanner against the recursive reference parser,
// parsed form against Canonicalize) is canon's FuzzParse.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"a",
		"(0 a b)",
		"(1 (0 a b) c)",
		"(1 (0 (1 a b) c) (0 d e f))",
		"((((",
		"(0 a",
		"(2 a b)",
		")",
		"(1 a b))",
		"(0 (1 x y) z",
		" \t\r\n(1\n\n a\t\t(0   b \r c ) )\n",
		"(0(1 a b)c)",
		strings.Repeat("(1 a (0 b ", 20) + "c" + strings.Repeat("))", 20),
		strings.Repeat("(1 a (0 b ", 20) + "c" + strings.Repeat("))", 19),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Parse(src)
		if err != nil {
			return
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("Parse accepted %q but Validate failed: %v", src, verr)
		}
		back, err := Parse(tr.String())
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", src, err)
		}
		if back.String() != tr.String() {
			t.Fatalf("round trip not stable: %q -> %q", tr.String(), back.String())
		}
	})
}
