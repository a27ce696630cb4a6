package pathcover

import (
	"errors"
	"testing"
)

// The overflow guard: sizes the pipeline's index kernels cannot hold are
// rejected with a typed error (ParseCotree, FromEdges) or a typed panic
// (the generators), never silently truncated.

func TestFromEdgesSizeGuard(t *testing.T) {
	over := MaxVertices // runtime increment: past the pipeline's int32 bound
	over++
	cases := []struct {
		name   string
		build  func() error
		n, max int
	}{
		{"FromEdges(-1)", func() error { _, err := FromEdges(-1, nil, nil); return err }, -1, MaxVertices},
		{"FromEdges(MaxVertices+1)", func() error { _, err := FromEdges(over, nil, nil); return err }, over, MaxVertices},
		// A cotree past MaxVertices cannot be materialised in a test, so
		// the guard runs against a small bound through the same code.
		{"ParseCotree past the bound", func() error { _, err := parseCotree("(1 a (0 b c))", 2); return err }, 3, 2},
	}
	for _, c := range cases {
		err := c.build()
		var se *SizeError
		if !errors.As(err, &se) {
			t.Fatalf("%s error = %v, want *SizeError", c.name, err)
		}
		if se.N != c.n || se.Max != c.max {
			t.Fatalf("%s SizeError = %+v", c.name, se)
		}
	}
	if _, err := FromEdges(3, [][2]int{{0, 1}}, nil); err != nil {
		t.Fatalf("FromEdges(3) unexpectedly failed: %v", err)
	}
	if _, err := ParseCotree("(1 a (0 b c))"); err != nil {
		t.Fatalf("ParseCotree of a 3-vertex cotree unexpectedly failed: %v", err)
	}
}

func TestGeneratorSizeGuard(t *testing.T) {
	defer func() {
		r := recover()
		se, ok := r.(*SizeError)
		if !ok {
			t.Fatalf("Empty(-3) panicked with %v, want *SizeError", r)
		}
		if se.N != -3 {
			t.Fatalf("Empty(-3) SizeError = %+v", se)
		}
	}()
	Empty(-3)
}
