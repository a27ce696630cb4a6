package canon

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pathcover/internal/cotree"
	"pathcover/internal/workload"
)

// refParse is the recursive token-slice parser cotree.Parse replaced,
// kept verbatim as the differential reference for the one-pass scanner:
// both must accept exactly the same inputs and build deep-equal trees.
// It recurses once per nesting level, so it is for tests only.
func refParse(src string) (*cotree.Tree, error) {
	toks := refTokenize(src)
	if len(toks) == 0 {
		return nil, fmt.Errorf("cotree: empty input")
	}
	p := &refParser{toks: toks, t: &cotree.Tree{Root: 0}}
	root, err := p.node(-1)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("cotree: trailing input at token %d (%q)", p.pos, p.toks[p.pos])
	}
	p.t.Root = root
	if err := p.t.Validate(); err != nil {
		return nil, err
	}
	return p.t, nil
}

type refParser struct {
	toks []string
	pos  int
	t    *cotree.Tree
}

func refTokenize(src string) []string {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		default:
			j := i
			for j < len(src) && !strings.ContainsRune("() \t\n\r", rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks
}

func (p *refParser) node(parent int) (int, error) {
	if p.pos >= len(p.toks) {
		return -1, fmt.Errorf("cotree: unexpected end of input")
	}
	tok := p.toks[p.pos]
	p.pos++
	t := p.t
	if tok == ")" {
		return -1, fmt.Errorf("cotree: unexpected ')' at token %d", p.pos-1)
	}
	if tok != "(" {
		// Leaf.
		id := len(t.Label)
		v := len(t.LeafOf)
		t.Label = append(t.Label, cotree.LabelLeaf)
		t.Parent = append(t.Parent, parent)
		t.Children = append(t.Children, nil)
		t.VertexOf = append(t.VertexOf, v)
		t.LeafOf = append(t.LeafOf, id)
		t.Names = append(t.Names, tok)
		return id, nil
	}
	if p.pos >= len(p.toks) {
		return -1, fmt.Errorf("cotree: missing label after '('")
	}
	var label int8
	switch p.toks[p.pos] {
	case "0":
		label = cotree.Label0
	case "1":
		label = cotree.Label1
	default:
		return -1, fmt.Errorf("cotree: invalid label %q (want 0 or 1)", p.toks[p.pos])
	}
	p.pos++
	id := len(t.Label)
	t.Label = append(t.Label, label)
	t.Parent = append(t.Parent, parent)
	t.Children = append(t.Children, nil)
	t.VertexOf = append(t.VertexOf, -1)
	for {
		if p.pos >= len(p.toks) {
			return -1, fmt.Errorf("cotree: missing ')'")
		}
		if p.toks[p.pos] == ")" {
			p.pos++
			break
		}
		c, err := p.node(id)
		if err != nil {
			return -1, err
		}
		t.Children[id] = append(t.Children[id], c)
	}
	return id, nil
}

// checkParse runs every invariant of the one-pass front end on src: no
// panic; acceptance exactly as refParse's, with a deep-equal tree; an
// accepted tree validates and round-trips through String; its parsed
// Form equals Canonicalize's; and its hash survives cotree.Permute.
func checkParse(t *testing.T, src string) {
	t.Helper()
	tr, form, err := Parse(src, 1<<30)
	ref, refErr := refParse(src)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%.80q: scanner error %v, reference error %v", src, err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(tr, ref) {
		t.Fatalf("%.80q: scanner tree differs from the reference parser's", src)
	}
	if verr := tr.Validate(); verr != nil {
		t.Fatalf("%.80q accepted but Validate failed: %v", src, verr)
	}
	back, err := cotree.Parse(tr.String())
	if err != nil || back.String() != tr.String() {
		t.Fatalf("%.80q: String round trip failed: %v", src, err)
	}
	want := Canonicalize(tr)
	if form.Hash != want.Hash || !slices.Equal(form.ToCanon, want.ToCanon) ||
		!slices.Equal(form.FromCanon, want.FromCanon) {
		t.Fatalf("%.80q: parsed form differs from Canonicalize", src)
	}
	if h := Canonicalize(cotree.Permute(tr, uint64(len(src))|1)).Hash; h != form.Hash {
		t.Fatalf("%.80q: permuted hash %s != %s", src, h, form.Hash)
	}
}

// TestParseGolden pins the canonical hash and numbering to the values
// the two-pass front end produced, so the hash keeps one definition
// across releases (cache keys and ring placement depend on it). The
// wide root has more than 12 tied leaf children, where the sort's
// order among equal digests shows in the numbering.
func TestParseGolden(t *testing.T) {
	for _, c := range []struct {
		src, hash string
		toCanon   []int32
	}{
		{"a", "b434f33c9fb63d390b0d1623ca17c5c1", []int32{0}},
		{"(0 a b)", "edbf34ff3cfa34fe46b375cb6e43d1e3", []int32{0, 1}},
		{"(1 (0 a b) c)", "cd48c8578d2eac86d86d789f2a67d42e", []int32{0, 1, 2}},
		{"(1 (0 (1 a b) c) (0 d e f))", "0adbf4a129fc6fb107a7e8c1ca65a195", []int32{3, 4, 5, 0, 1, 2}},
		{"(0 a b c d e f g h i j k l m n (1 o p))", "a918ec287653e10ae046e597d101c50e",
			[]int32{7, 15, 9, 4, 5, 6, 2, 8, 3, 10, 11, 12, 13, 14, 0, 1}},
		{workload.Random(1, 500, workload.Mixed).String(), "44dbad3f9fb93cb29c42f984a6551506", nil},
		{workload.Random(1, 500, workload.Balanced).String(), "52d1f28aa32e56437cc2843e6ab3728b", nil},
		{workload.Random(1, 500, workload.Caterpillar).String(), "43570cd3af49d68fd17cf48360088e71", nil},
	} {
		_, form, err := Parse(c.src, 1<<30)
		if err != nil {
			t.Fatalf("Parse(%.40q): %v", c.src, err)
		}
		if got := form.Hash.String(); got != c.hash {
			t.Errorf("Parse(%.40q) hash %s, want %s", c.src, got, c.hash)
		}
		if c.toCanon != nil && !slices.Equal(form.ToCanon, c.toCanon) {
			t.Errorf("Parse(%q) ToCanon %v, want %v", c.src, form.ToCanon, c.toCanon)
		}
	}
}

// TestParseMatchesReference runs checkParse over every cograph class
// with n <= 10, over a serving-class catalog with relabelled twins, and
// over one deep whitespace-heavy cotree (too large for the fuzz corpus,
// where minimizing it would stall the fuzzer).
func TestParseMatchesReference(t *testing.T) {
	classes := 0
	for n := 1; n <= 10; n++ {
		for _, tr := range allCographs(n) {
			checkParse(t, tr.String())
			classes++
		}
	}
	if classes != 6965 {
		t.Fatalf("checked %d cograph classes, want 6965", classes)
	}
	reqs := workload.RequestsClass(1, 200, 3, 14, 24, workload.SizeServing)
	for _, r := range workload.Catalog(reqs) {
		tr := r.Tree()
		checkParse(t, tr.String())
		checkParse(t, cotree.Permute(tr, 5).String())
	}
	checkParse(t, deepSeed(5000))
}

// TestParseSizeBound: an input past the vertex bound gets the typed
// error from the pre-count, and one at the bound parses.
func TestParseSizeBound(t *testing.T) {
	if _, _, err := Parse("(1 a (0 b c))", 3); err != nil {
		t.Fatalf("at the bound: %v", err)
	}
	_, _, err := Parse("(1 a (0 b c))", 2)
	if se, ok := err.(*cotree.SizeError); !ok || se.N != 3 || se.Max != 2 {
		t.Fatalf("past the bound: err = %v, want *cotree.SizeError{3, 2}", err)
	}
}

// deepSeed is an alternating caterpillar cotree nested depth levels,
// spaced with a mix of the format's whitespace bytes.
func deepSeed(depth int) string {
	var b strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "(%d\tv%d\r\n ", 1-i%2, i)
	}
	fmt.Fprintf(&b, "v%d", depth)
	b.WriteString(strings.Repeat(" )", depth))
	return b.String()
}

// FuzzParse drives arbitrary bytes through checkParse. The corpus adds
// deep and whitespace-heavy inputs to the malformed ones.
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
		"(0(1 a b)c)",
		" \t\r\n(1\n\n a\t\t(0   b \r c ) )\n",
		"(01 a b)",
		"(0 0 1)",
		"(\n1 a b)",
		deepSeed(40),
		deepSeed(40)[:300],
	} {
		f.Add(seed)
	}
	f.Fuzz(checkParse)
}
