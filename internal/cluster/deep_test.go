package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"pathcover"
	"pathcover/internal/daemon"
)

// deepCaterpillar returns the text form of the alternating caterpillar
// cotree with depth internal nodes, (1 v0 (0 v1 (1 v2 ... vdepth))),
// and its edge count: internal node i joins (when its label is 1) leaf
// vi with the depth-i leaves below it.
func deepCaterpillar(depth int) (string, int) {
	var b strings.Builder
	edges := 0
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "(%d v%d ", 1-i%2, i)
		if i%2 == 0 {
			edges += depth - i
		}
	}
	fmt.Fprintf(&b, "v%d", depth)
	b.WriteString(strings.Repeat(")", depth))
	return b.String(), edges
}

// TestDeepCotreeEveryPath sends a 200k-deep cotree through every request
// path that walks a parsed cotree, with the goroutine stack capped at
// 4 MiB: a walk that recursed once per nesting level would die with a
// fatal stack overflow, which no recover can catch.
func TestDeepCotreeEveryPath(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(4 << 20))
	src, edges := deepCaterpillar(200_000)
	body, err := json.Marshal(map[string]string{"cotree": src, "backend": "tree"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := pathcover.ParseCotree(src)
	if err != nil {
		t.Fatalf("ParseCotree: %v", err)
	}
	srv := daemon.New(daemon.Config{Shards: 1, LogOutput: io.Discard})
	defer srv.Close()

	cases := []struct {
		name string
		run  func() error
	}{
		{"ParseCotree", func() error {
			if g.N() != 200_001 {
				return fmt.Errorf("%d vertices, want 200001", g.N())
			}
			return nil
		}},
		{"String", func() error {
			if g.String() != src {
				return fmt.Errorf("String does not round-trip the source")
			}
			return nil
		}},
		{"NumEdges", func() error {
			if m := g.NumEdges(); m != edges {
				return fmt.Errorf("NumEdges = %d, want %d", m, edges)
			}
			return nil
		}},
		{"IsForest", func() error {
			if g.IsForest() {
				return fmt.Errorf("IsForest = true on a graph with triangles")
			}
			return nil
		}},
		{"routeKey", func() error {
			if routeKey(body) != KeyOf(g) {
				return fmt.Errorf("routeKey does not key by canonical identity")
			}
			return nil
		}},
		{"daemon POST /cover backend tree", func() error {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cover", strings.NewReader(string(body))))
			if rec.Code != http.StatusRequestEntityTooLarge {
				return fmt.Errorf("HTTP %d, want 413: %s", rec.Code, rec.Body)
			}
			return nil
		}},
	}
	for _, c := range cases {
		if err := c.run(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
