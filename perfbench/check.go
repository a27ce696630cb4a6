package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"pathcover"
)

// graphSpec mirrors the daemon's wire form of a graph.
type graphSpec struct {
	Cotree string   `json:"cotree,omitempty"`
	N      int      `json:"n,omitempty"`
	Edges  [][2]int `json:"edges,omitempty"`
}

// graph parses an item's exact wire bytes.
func (it item) graph() (*pathcover.Graph, error) {
	var sp graphSpec
	if err := json.Unmarshal(it.spec, &sp); err != nil {
		return nil, err
	}
	return sp.graph()
}

// graph parses a spec the way the daemon does: cotree text, or an edge
// list that may or may not be a cograph.
func (s graphSpec) graph() (*pathcover.Graph, error) {
	if s.Cotree != "" {
		return pathcover.ParseCotree(s.Cotree)
	}
	return pathcover.FromEdgesAny(s.N, s.Edges, nil)
}

// coverAnswer mirrors one cover of a daemon response.
type coverAnswer struct {
	N          int     `json:"n"`
	NumPaths   int     `json:"num_paths"`
	Paths      [][]int `json:"paths"`
	Exact      bool    `json:"exact"`
	Backend    string  `json:"backend"`
	LowerBound int     `json:"lower_bound"`
	Gap        int     `json:"gap"`
	Stats      struct {
		Procs int   `json:"procs"`
		Time  int64 `json:"time"`
		Work  int64 `json:"work"`
	} `json:"stats"`
}

// covers decodes a 200 answer into one cover per graph of the request.
func covers(req request, status int, body []byte) ([]coverAnswer, error) {
	if status != 200 {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	if req.path == "/batch" {
		var b struct {
			Covers []coverAnswer `json:"covers"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, fmt.Errorf("decode batch answer: %w", err)
		}
		if len(b.Covers) != len(req.items) {
			return nil, fmt.Errorf("%d covers for %d graphs", len(b.Covers), len(req.items))
		}
		return b.Covers, nil
	}
	var c coverAnswer
	if err := json.Unmarshal(body, &c); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	return []coverAnswer{c}, nil
}

// checkCover checks one answer against the graph parsed from the bytes
// that were sent. Graph.Verify checks validity, and minimality where
// the graph is a cograph or a forest; the label checks cover the
// approximation route, whose size is only bracketed.
func checkCover(g *pathcover.Graph, c *coverAnswer) error {
	if c.N != g.N() {
		return fmt.Errorf("answer for n=%d, graph has %d vertices", c.N, g.N())
	}
	if c.NumPaths != len(c.Paths) {
		return fmt.Errorf("num_paths %d but %d paths", c.NumPaths, len(c.Paths))
	}
	if err := g.Verify(c.Paths); err != nil {
		return err
	}
	switch {
	case c.LowerBound > c.NumPaths:
		return fmt.Errorf("lower bound %d above num_paths %d", c.LowerBound, c.NumPaths)
	case c.Gap != c.NumPaths-c.LowerBound:
		return fmt.Errorf("gap %d, want %d", c.Gap, c.NumPaths-c.LowerBound)
	case c.Exact != (c.Backend == "cograph" || c.Backend == "tree"):
		return fmt.Errorf("exact=%v from backend %q", c.Exact, c.Backend)
	case c.Exact && c.Gap != 0:
		return fmt.Errorf("exact answer with gap %d", c.Gap)
	case g.IsCograph() != (c.Backend == "cograph"):
		return fmt.Errorf("cograph=%v served by backend %q", g.IsCograph(), c.Backend)
	}
	return nil
}

// simCost is the simulated PRAM cost the paper pipeline charged for one
// presentation.
type simCost struct{ Time, Work int64 }

// outcome is what checking a run's answers found.
type outcome struct {
	graphs   int            // graphs asked about
	failed   int            // graphs not answered correctly: errors, refusals and wrong answers
	wrong    int            // of those, answers that came back 200 and failed the check
	firstErr error          // the first failure, for the report
	routes   map[string]int // answers per backend
	// sim is the charged cost per presentation. Cache hits are
	// uncharged, and every charged answer for one presentation must
	// carry the same cost: the pipeline is deterministic.
	sim map[int]simCost
	// verified holds the digest of every answer that passed its check,
	// per presentation. Rounds resend the same requests, and an answer
	// equal to one already verified for the same bytes is not verified
	// again.
	verified map[int]map[uint64]bool
}

func newOutcome() *outcome {
	return &outcome{routes: map[string]int{}, sim: map[int]simCost{}, verified: map[int]map[uint64]bool{}}
}

// digest hashes everything checkCover looks at in an answer.
func (c *coverAnswer) digest() uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, v := range []int{c.N, c.NumPaths, c.LowerBound, c.Gap} {
		buf = binary.AppendVarint(buf, int64(v))
	}
	buf = strconv.AppendBool(buf, c.Exact)
	buf = append(buf, c.Backend...)
	for _, path := range c.Paths {
		buf = binary.AppendVarint(buf, -1)
		for _, v := range path {
			buf = binary.AppendVarint(buf, int64(v))
		}
	}
	h.Write(buf)
	return h.Sum64()
}

func (o *outcome) fail(err error, graphs int) {
	o.failed += graphs
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// check verifies every answer of one phase, outside the timed window,
// on `workers` goroutines. Answers are grouped by presentation so each
// graph is parsed once, from the exact bytes that were sent.
func (o *outcome) check(in *inputs, reqs []request, ss []sample, workers int) {
	decoded := make([][]coverAnswer, len(ss))
	errs := make([]error, len(ss))
	parallel(len(ss), workers, func(i int) {
		if errs[i] = ss[i].err; errs[i] == nil {
			decoded[i], errs[i] = covers(reqs[i], ss[i].status, ss[i].resp)
		}
	})
	byItem := map[int][]*coverAnswer{}
	for i, s := range ss {
		req := reqs[i]
		o.graphs += req.graphs()
		if errs[i] != nil {
			if s.err == nil && s.status == 200 {
				o.wrong += req.graphs()
			}
			o.fail(errs[i], req.graphs())
			continue
		}
		for j := range decoded[i] {
			byItem[req.items[j]] = append(byItem[req.items[j]], &decoded[i][j])
		}
	}
	items := make([]int, 0, len(byItem))
	for idx := range byItem {
		items = append(items, idx)
	}
	sort.Ints(items)
	var mu sync.Mutex
	parallel(len(items), workers, func(k int) {
		idx := items[k]
		answers := byItem[idx]
		digests := make([]uint64, len(answers))
		known := make([]bool, len(answers))
		fresh := false
		mu.Lock()
		for i, c := range answers {
			digests[i] = c.digest()
			known[i] = o.verified[idx][digests[i]]
			fresh = fresh || !known[i]
		}
		mu.Unlock()
		// The graph is only parsed when some answer is new.
		var g *pathcover.Graph
		var gerr error
		if fresh {
			g, gerr = in.items[idx].graph()
		}
		for i, c := range answers {
			var err error
			if !known[i] {
				if err = gerr; err == nil {
					err = checkCover(g, c)
				}
			}
			mu.Lock()
			if err == nil {
				err = o.charge(idx, c)
			}
			if err != nil {
				o.wrong++
				o.fail(fmt.Errorf("presentation %d (n=%d): %w", idx, in.items[idx].n, err), 1)
			} else {
				o.routes[c.Backend]++
				if o.verified[idx] == nil {
					o.verified[idx] = map[uint64]bool{}
				}
				o.verified[idx][digests[i]] = true
			}
			mu.Unlock()
		}
	})
}

// parallel calls f(0) ... f(n-1) from `workers` goroutines and returns
// once every call has.
func parallel(n, workers int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// charge records a charged answer's cost.
func (o *outcome) charge(idx int, c *coverAnswer) error {
	if c.Stats.Work == 0 {
		return nil
	}
	got := simCost{c.Stats.Time, c.Stats.Work}
	if prev, ok := o.sim[idx]; ok && prev != got {
		return fmt.Errorf("charged %+v, an earlier answer for the same bytes was charged %+v", got, prev)
	}
	o.sim[idx] = got
	return nil
}

// simTotals sums the charged cost over presentations.
func (o *outcome) simTotals() simCost {
	var t simCost
	for _, c := range o.sim {
		t.Time += c.Time
		t.Work += c.Work
	}
	return t
}

// ledger compares this run's charged cost per presentation with the
// earlier runs of the same inputs in this checkout, and records the
// union for the next run. The costs are the reproduction: one
// presentation charged differently is a broken run, never noise. Only
// presentations charged in both runs are compared, because a hedged
// request that a cold replica answers first is charged where the cache
// would not have charged it.
func ledger(dir, key string, got map[int]simCost) (string, error) {
	path := filepath.Join(dir, key+".json")
	known := map[int]simCost{}
	status := "first run of these inputs, recorded"
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &known); err != nil {
			return "", fmt.Errorf("ledger %s: %w", path, err)
		}
		if err := agree(got, known); err != nil {
			return "", fmt.Errorf("%w in an earlier run of the same inputs", err)
		}
		status = "agrees with earlier runs of the same inputs"
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	for idx, c := range got {
		known[idx] = c
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(known)
	if err != nil {
		return "", err
	}
	return status, os.WriteFile(path, b, 0o644)
}

// agree reports the first presentation two runs charged differently.
func agree(a, b map[int]simCost) error {
	keys := make([]int, 0, len(a))
	for idx := range a {
		keys = append(keys, idx)
	}
	sort.Ints(keys)
	for _, idx := range keys {
		if c, ok := b[idx]; ok && c != a[idx] {
			return fmt.Errorf("presentation %d charged %+v, but %+v", idx, a[idx], c)
		}
	}
	return nil
}
