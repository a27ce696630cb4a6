package cotree

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The text format is an s-expression per node:
//
//	tree  := leaf | "(" label tree tree ... ")"
//	label := "0" | "1"
//	leaf  := identifier (no whitespace or parentheses)
//
// Example (the cograph of the paper's Fig. 1 has the shape):
//
//	(0 (1 a (0 b c)) (1 d e))
//
// Whitespace separates tokens and is otherwise ignored.

// String serialises the cotree in the text format. It walks the tree
// with an explicit stack, so any depth serialises.
func (t *Tree) String() string {
	var sb strings.Builder
	type frame struct{ node, next int }
	st := []frame{{node: t.Root}}
	for len(st) > 0 {
		f := &st[len(st)-1]
		u := f.node
		if t.Label[u] == LabelLeaf {
			sb.WriteString(t.Name(t.VertexOf[u]))
			st = st[:len(st)-1]
			continue
		}
		if f.next == 0 {
			sb.WriteByte('(')
			sb.WriteString(strconv.Itoa(int(t.Label[u])))
		}
		if ch := t.Children[u]; f.next < len(ch) {
			f.next++
			sb.WriteByte(' ')
			st = append(st, frame{node: ch[f.next-1]})
			continue
		}
		sb.WriteByte(')')
		st = st[:len(st)-1]
	}
	return sb.String()
}

// A Folder computes a value bottom-up over the tree ParseFold builds,
// during the same scan.
type Folder interface {
	// Begin is called once, before any Close, with the number of nodes
	// the input holds if it is well formed (an upper bound otherwise).
	Begin(nodes int)
	// Close is called when node u is complete: a leaf at its name, an
	// internal node at its ')'. Every child closes before its parent.
	// t.Label[u], t.Children[u] and t.VertexOf[u] are final by then.
	Close(t *Tree, u int)
}

// SizeError reports a cotree with more leaves than ParseFold's bound.
type SizeError struct {
	N   int // leaves in the input
	Max int // the caller's bound
}

// Error describes the oversized input.
func (e *SizeError) Error() string {
	return fmt.Sprintf("cotree: %d leaves exceed the bound %d", e.N, e.Max)
}

// Parse reads a cotree from the text format and validates it: ParseFold
// with no vertex bound and no fold.
func Parse(src string) (*Tree, error) { return ParseFold(src, math.MaxInt, nil) }

// MustParse is Parse for known-good literals in tests and examples.
func MustParse(src string) *Tree {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

// isSpace reports whether c is a whitespace byte of the text format.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// isSep reports whether c ends a name or label: a bracket or whitespace.
func isSep(c byte) bool { return c == '(' || c == ')' || isSpace(c) }

// ParseFold reads a cotree from the text format in one iterative scan
// and validates it, calling f.Close (when f is non-nil) as each node
// completes. A first pass over the bytes counts the nodes and leaves,
// so every array is allocated once at its final size, and an input
// with more than maxVertices leaves gets a *SizeError before any of
// them is. Node ids are pre-order, vertex ids follow leaf order, all
// Children lists share one backing array, and leaf names are
// substrings of src. The open nodes live on an explicit stack, so
// nesting depth is bounded by len(src) alone.
func ParseFold(src string, maxVertices int, f Folder) (*Tree, error) {
	// Every node owns exactly one word (its label or its name), and
	// every internal node also owns a '('.
	words, opens, depth, maxDepth := 0, 0, 0, 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case c == '(':
			opens++
			depth++
			maxDepth = max(maxDepth, depth)
		case c == ')':
			depth--
		case !isSep(c) && (i == 0 || isSep(src[i-1])):
			words++
		}
	}
	nodes, leaves := words, max(words-opens, 0)
	if leaves > maxVertices {
		return nil, &SizeError{N: leaves, Max: maxVertices}
	}

	// Malformed input may hold more leaves than the count implies;
	// append then grows the arrays until the scan reports the error.
	t := &Tree{
		Label:    make([]int8, 0, nodes),
		Parent:   make([]int, 0, nodes),
		Children: make([][]int, 0, nodes),
		VertexOf: make([]int, 0, nodes),
		LeafOf:   make([]int, 0, leaves),
		Names:    make([]string, 0, leaves),
	}
	kids := make([]int, 0, max(nodes-1, 0))
	type frame struct{ node, base int } // base: pending height at open
	open := make([]frame, 0, maxDepth)
	pending := make([]int, 0, nodes) // closed nodes awaiting their ')'
	if f != nil {
		f.Begin(nodes)
	}
	addNode := func(label int8, vertex int) int {
		parent := -1
		if len(open) > 0 {
			parent = open[len(open)-1].node
		}
		t.Label = append(t.Label, label)
		t.Parent = append(t.Parent, parent)
		t.Children = append(t.Children, nil)
		t.VertexOf = append(t.VertexOf, vertex)
		return len(t.Label) - 1
	}
	done := false
	closeNode := func(u int) {
		if f != nil {
			f.Close(t, u)
		}
		if len(open) > 0 {
			pending = append(pending, u)
		} else {
			done = true
		}
	}
	wordEnd := func(i int) int {
		for i < len(src) && !isSep(src[i]) {
			i++
		}
		return i
	}
	for i := 0; ; {
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		if i == len(src) {
			break
		}
		if done {
			return nil, fmt.Errorf("cotree: trailing input at byte %d", i)
		}
		switch src[i] {
		case '(':
			i++
			for i < len(src) && isSpace(src[i]) {
				i++
			}
			if i == len(src) {
				return nil, errors.New("cotree: missing label after '('")
			}
			j := max(wordEnd(i), i+1)
			var label int8
			switch src[i:j] {
			case "0":
				label = Label0
			case "1":
				label = Label1
			default:
				return nil, fmt.Errorf("cotree: invalid label %q at byte %d (want 0 or 1)", src[i:j], i)
			}
			i = j
			open = append(open, frame{node: addNode(label, -1), base: len(pending)})
		case ')':
			if len(open) == 0 {
				return nil, fmt.Errorf("cotree: unexpected ')' at byte %d", i)
			}
			i++
			top := open[len(open)-1]
			open = open[:len(open)-1]
			s := len(kids)
			kids = append(kids, pending[top.base:]...)
			t.Children[top.node] = kids[s:len(kids):len(kids)]
			pending = pending[:top.base]
			closeNode(top.node)
		default:
			j := wordEnd(i)
			u := addNode(LabelLeaf, len(t.LeafOf))
			t.LeafOf = append(t.LeafOf, u)
			t.Names = append(t.Names, src[i:j])
			i = j
			closeNode(u)
		}
	}
	switch {
	case len(open) > 0:
		return nil, errors.New("cotree: missing ')'")
	case !done:
		return nil, errors.New("cotree: empty input")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
