package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathcover"
	"pathcover/internal/core"
	"pathcover/internal/cotree"
	"pathcover/internal/pram"
)

// The traced run replays each request's handler stages in-process with
// a span around every call into a layer's public API. The replay has
// three passes:
//
//   - stages: decode, parse (or recognize), first canonical hash, one
//     goroutine on an idle machine, so allocation counts are exact;
//   - pool: the same requests from `conns` goroutines against a Pool
//     built as the daemon builds its own, then the response encode, so
//     cache remaps and queue waits are seen under load;
//   - idle: every solved graph once on an idle dedicated Solver with
//     the shard's worker budget, and every solved cotree once through
//     core.ParallelCover with a StepTrace.

// coverMirror and batchMirror mirror the daemon's request bodies.
type coverMirror struct {
	graphSpec
	OmitPaths    bool   `json:"omit_paths,omitempty"`
	IncludeNames bool   `json:"include_names,omitempty"`
	Backend      string `json:"backend,omitempty"`
}

type batchMirror struct {
	Graphs       []graphSpec `json:"graphs"`
	OmitPaths    bool        `json:"omit_paths,omitempty"`
	IncludeNames bool        `json:"include_names,omitempty"`
	Backend      string      `json:"backend,omitempty"`
}

// decodeBody reads a request body as the daemon does: one JSON value,
// unknown fields rejected.
func decodeBody(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func specsOf(req request) ([]graphSpec, error) {
	if req.path == "/batch" {
		var b batchMirror
		err := decodeBody(req.body, &b)
		return b.Graphs, err
	}
	var c coverMirror
	err := decodeBody(req.body, &c)
	return []graphSpec{c.graphSpec}, err
}

// answerOf is the daemon's response shape for one cover.
func answerOf(g *pathcover.Graph, c *pathcover.Cover) coverAnswer {
	a := coverAnswer{N: g.N(), NumPaths: c.NumPaths, Paths: c.Paths, Exact: c.Exact,
		Backend: c.Backend.String(), LowerBound: c.LowerBound, Gap: c.Gap}
	a.Stats.Procs, a.Stats.Time, a.Stats.Work = c.Stats.Procs, c.Stats.Time, c.Stats.Work
	return a
}

type replayResult struct {
	decode, parse, recognize, canon []float64 // ms per call
	parseAllocs, canonAllocs        []float64
	remap                           []float64 // pool call on a cache hit
	wait                            []float64 // pool call on a solve minus the idle solve
	encode                          []float64
	solve                           []float64 // idle Solver, cograph route
	treeMS, approxMS                []float64
	steps                           [8]float64 // ms, summed over solved cotrees
	simMismatch                     string
}

// timedRequests is the replayed sequence: both timed phases, in order.
func timedRequests(in *inputs) []request {
	return append(append([]request(nil), in.open...), in.closed...)
}

func replay(in *inputs, base *pass, conns int) (*replayResult, error) {
	rr := &replayResult{}
	reqs := timedRequests(in)
	if err := rr.stages(reqs); err != nil {
		return nil, err
	}
	idle, err := rr.poolPass(in, reqs, conns)
	if err != nil {
		return nil, err
	}
	return rr, rr.idlePass(in, idle, base, base.srv.shardWorkers)
}

// stages replays decode, parse and canonicalization on one goroutine.
func (rr *replayResult) stages(reqs []request) error {
	for _, req := range reqs {
		t0 := time.Now()
		specs, err := specsOf(req)
		rr.decode = append(rr.decode, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		for _, sp := range specs {
			a0 := readRuntime()[0]
			t0 := time.Now()
			g, err := sp.graph()
			d := ms(time.Since(t0))
			allocs := float64(readRuntime()[0] - a0)
			if err != nil {
				return err
			}
			if sp.Cotree != "" {
				rr.parse = append(rr.parse, d)
				rr.parseAllocs = append(rr.parseAllocs, allocs)
			} else {
				rr.recognize = append(rr.recognize, d)
			}
			a0 = readRuntime()[0]
			t0 = time.Now()
			if _, _, ok := g.CanonicalHash(); ok {
				rr.canon = append(rr.canon, ms(time.Since(t0)))
				rr.canonAllocs = append(rr.canonAllocs, float64(readRuntime()[0]-a0))
			}
		}
	}
	return nil
}

// solved is a graph a replay pool call had to solve, with the call's
// duration (the batch's, for a batch).
type solved struct {
	items []int
	dur   time.Duration
}

// poolPass drives a daemon-configured Pool from conns goroutines: warm-up
// first, then the timed sequence, with the encode after each call.
func (rr *replayResult) poolPass(in *inputs, reqs []request, conns int) ([]solved, error) {
	pool := pathcover.NewPool(pathcover.WithCache(nodeConfig().CacheMB << 20))
	defer pool.Close()
	ctx := context.Background()
	var mu sync.Mutex
	var out []solved
	call := func(req request, timed bool) error {
		specs, err := specsOf(req)
		if err != nil {
			return err
		}
		gs := make([]*pathcover.Graph, len(specs))
		for i, sp := range specs {
			if gs[i], err = sp.graph(); err != nil {
				return err
			}
			gs[i].CanonicalHash()
		}
		t0 := time.Now()
		var covs []*pathcover.Cover
		if req.path == "/batch" {
			covs, err = pool.CoverBatch(ctx, gs)
		} else {
			var c *pathcover.Cover
			c, err = pool.MinimumPathCover(ctx, gs[0])
			covs = []*pathcover.Cover{c}
		}
		d := time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		answers := make([]coverAnswer, len(covs))
		for i, c := range covs {
			answers[i] = answerOf(gs[i], c)
		}
		var body any = answers[0]
		if req.path == "/batch" {
			body = map[string]any{"covers": answers, "elapsed_ms": ms(d)}
		}
		if err := json.NewEncoder(io.Discard).Encode(body); err != nil {
			return err
		}
		enc := time.Since(t0)
		var miss []int
		for i, c := range covs {
			if c.Shard >= 0 {
				miss = append(miss, req.items[i])
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if timed {
			rr.encode = append(rr.encode, ms(enc))
			if len(miss) == 0 {
				rr.remap = append(rr.remap, ms(d))
			}
		}
		if len(miss) > 0 {
			out = append(out, solved{items: miss, dur: d})
		}
		return nil
	}
	for _, req := range in.warm {
		if err := call(req, false); err != nil {
			return nil, err
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || errs[c] != nil {
					return
				}
				errs[c] = call(reqs[i], true)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// idlePass times every solved graph alone, derives the pool's queue
// wait from it, and traces the pipeline's steps; the simulated cost of
// each traced cotree must equal what the daemon charged for it.
func (rr *replayResult) idlePass(in *inputs, solvedCalls []solved, base *pass, workers int) error {
	sv := pathcover.NewSolver(pathcover.WithWorkers(workers))
	defer sv.Close()
	sim := pram.New(1, pram.WithWorkers(workers))
	defer sim.Close()
	idle := map[int]time.Duration{}
	items := map[int]bool{}
	for _, s := range solvedCalls {
		for _, it := range s.items {
			items[it] = true
		}
	}
	for it := range base.out.sim {
		items[it] = true
	}
	order := make([]int, 0, len(items))
	for it := range items {
		order = append(order, it)
	}
	sort.Ints(order)
	var mismatches []string
	for _, it := range order {
		var sp graphSpec
		if err := json.Unmarshal(in.items[it].spec, &sp); err != nil {
			return err
		}
		g, err := sp.graph()
		if err != nil {
			return err
		}
		t0 := time.Now()
		c, err := sv.MinimumPathCover(g)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		idle[it] = d
		switch c.Backend {
		case pathcover.BackendCograph:
			rr.solve = append(rr.solve, ms(d))
		case pathcover.BackendTree:
			rr.treeMS = append(rr.treeMS, ms(d))
		default:
			rr.approxMS = append(rr.approxMS, ms(d))
		}
		if sp.Cotree == "" {
			continue // recognized edge lists have no cotree text to trace
		}
		t, err := cotree.Parse(sp.Cotree)
		if err != nil {
			return err
		}
		sim.SetProcs(pram.ProcsFor(t.NumVertices()))
		sim.Reset()
		var st core.StepTrace
		cov, err := core.ParallelCover(sim, t, core.Options{Seed: 1, Trace: &st})
		if err != nil {
			return err
		}
		cov.Release(sim)
		for i, name := range st.Names {
			// Step names start with the paper's step number: "1
			// binarize", "3a euler tour", ...
			step := int(name[0] - '0')
			if step >= 1 && step <= 8 {
				rr.steps[step-1] += ms(st.Wall[i])
			}
		}
		if want, ok := base.out.sim[it]; ok {
			if got := (simCost{sim.Time(), sim.Work()}); got != want {
				mismatches = append(mismatches, fmt.Sprintf("presentation %d: StepTrace %+v, daemon charged %+v", it, got, want))
			}
		}
	}
	if len(mismatches) > 0 {
		rr.simMismatch = fmt.Sprintf("%d simulated-cost mismatches, first: %s", len(mismatches), mismatches[0])
	}
	for _, s := range solvedCalls {
		d := s.dur
		for _, it := range s.items {
			d -= idle[it]
		}
		rr.wait = append(rr.wait, ms(d))
	}
	return nil
}

// spanStats turns the traced HTTP run's spans into per-request figures.
func spanStats(tr *tracer) (handler, transport, self []float64) {
	clients := tr.byName("client")
	nodes := tr.byName("node")
	gws := tr.byName("gateway")
	for _, ss := range nodes {
		for _, s := range ss {
			handler = append(handler, ms(s.dur()))
		}
	}
	for rid, cs := range clients {
		outer := gws[rid]
		if len(outer) == 0 {
			outer = nodes[rid]
		}
		if len(outer) == 0 {
			continue
		}
		transport = append(transport, ms(cs[0].dur()-outer[0].dur()))
	}
	for rid, gs := range gws {
		self = append(self, ms(selfTime(gs[0], nodes[rid])))
	}
	return handler, transport, self
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// layerMetrics lists the per-layer metrics in report order with units.
var layerMetrics = []struct{ name, unit string }{
	{"cluster.self_ms_p50", "ms"}, {"cluster.attempts_per_req", "count"}, {"cluster.hedged_pct", "%"},
	{"daemon.handler_ms_p50", "ms"}, {"daemon.handler_ms_tail", "ms"}, {"http.transport_ms_p50", "ms"},
	{"daemon.shed_total", "count"}, {"pool.rejected_total", "count"},
	{"decode.ms_p50", "ms"}, {"cotree.parse_ms_p50", "ms"}, {"cotree.parse_allocs_per_req", "count"},
	{"canon.ms_p50", "ms"}, {"canon.allocs_per_req", "count"},
	{"cograph.recognize_ms_p50", "ms"},
	{"covercache.hit_pct", "%"}, {"covercache.remap_ms_p50", "ms"},
	{"covercache.evictions", "count"}, {"covercache.coalesced", "count"},
	{"pool.wait_ms_p50", "ms"}, {"pool.wait_ms_tail", "ms"}, {"pool.arena_mb", "MiB"},
	{"core.solve_ms_p50", "ms"},
	{"core.step1_ms", "ms"}, {"core.step2_ms", "ms"}, {"core.step3_ms", "ms"}, {"core.step4_ms", "ms"},
	{"core.step5_ms", "ms"}, {"core.step6_ms", "ms"}, {"core.step7_ms", "ms"}, {"core.step8_ms", "ms"},
	{"core.sim_time_total", "count"}, {"core.sim_work_total", "count"},
	{"backend.tree_ms_p50", "ms"}, {"backend.approx_ms_p50", "ms"},
	{"backend.routes_cograph", "count"}, {"backend.routes_tree", "count"}, {"backend.routes_approx", "count"},
	{"encode.ms_p50", "ms"},
	{"process.cpu_ms_per_graph", "ms"}, {"process.gc_count", "count"}, {"loadgen.lag_ms_tail", "ms"},
	{"trace.overhead_p50_pct", "%"}, {"trace.overhead_capacity_pct", "%"},
}

// layers assembles the per-layer ledger: server counters and process
// figures from the untraced run, spans from the traced run, stage
// timings from the replay.
func layers(w workloadSpec, base, traced *pass, tr *tracer, rr *replayResult, e2e map[string]metric) map[string]metric {
	handler, transport, self := spanStats(tr)
	c := base.srv
	v := map[string]float64{
		"daemon.handler_ms_p50":       median(handler),
		"daemon.handler_ms_tail":      tail(handler).value,
		"http.transport_ms_p50":       median(transport),
		"daemon.shed_total":           c.shed,
		"pool.rejected_total":         float64(c.rejected),
		"decode.ms_p50":               median(rr.decode),
		"cotree.parse_ms_p50":         median(rr.parse),
		"cotree.parse_allocs_per_req": mean(rr.parseAllocs),
		"canon.ms_p50":                median(rr.canon),
		"canon.allocs_per_req":        mean(rr.canonAllocs),
		"cograph.recognize_ms_p50":    median(rr.recognize),
		"covercache.hit_pct":          pct(float64(c.hits), float64(c.hits+c.misses+c.coalesced)),
		"covercache.remap_ms_p50":     median(rr.remap),
		"covercache.evictions":        float64(c.evictions),
		"covercache.coalesced":        float64(c.coalesced),
		"pool.wait_ms_p50":            median(rr.wait),
		"pool.wait_ms_tail":           tail(rr.wait).value,
		"pool.arena_mb":               float64(c.arenaBytes) / (1 << 20),
		"core.solve_ms_p50":           median(rr.solve),
		"core.sim_time_total":         float64(base.out.simTotals().Time),
		"core.sim_work_total":         float64(base.out.simTotals().Work),
		"backend.tree_ms_p50":         median(rr.treeMS),
		"backend.approx_ms_p50":       median(rr.approxMS),
		"backend.routes_cograph":      float64(base.out.routes["cograph"]),
		"backend.routes_tree":         float64(base.out.routes["tree"]),
		"backend.routes_approx":       float64(base.out.routes["approx"]),
		"encode.ms_p50":               median(rr.encode),
		"process.cpu_ms_per_graph":    ms(base.cpu) / float64(base.timedGraphs),
		"process.gc_count":            float64(base.gcCycles),
		"loadgen.lag_ms_tail":         tail(lagsMS(base.openSamples())).value,
	}
	if w.gateway {
		v["cluster.self_ms_p50"] = median(self)
		v["cluster.attempts_per_req"] = float64(c.gwRequests+c.gwRetries+c.gwHedged) / float64(c.gwRequests)
		v["cluster.hedged_pct"] = pct(float64(c.gwHedged), float64(c.gwRequests))
	}
	for i, s := range rr.steps {
		v[fmt.Sprintf("core.step%d_ms", i+1)] = s
	}
	te := traced.endToEnd()
	v["trace.overhead_p50_pct"] = 100 * (te["p50_ms"].Value/e2e["p50_ms"].Value - 1)
	v["trace.overhead_capacity_pct"] = 100 * (1 - te["capacity_gps"].Value/e2e["capacity_gps"].Value)
	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// absent says why a per-layer metric reads 0 on a workload.
func absent(w workloadSpec, name string) string {
	switch {
	case strings.HasPrefix(name, "cluster.") && !w.gateway:
		return "no gateway on this workload"
	case name == "cograph.recognize_ms_p50" && w.name != "batch-edges":
		return "no edge lists on this workload"
	case strings.HasPrefix(name, "backend.") && w.name != "batch-edges" && name != "backend.routes_cograph":
		return "cotrees only: every graph takes the cograph route"
	case name == "loadgen.lag_ms_tail" && w.openRate == 0:
		return "closed loop only"
	case name == "covercache.remap_ms_p50" && w.name == "batch-edges":
		return "no batch is all hits; hits are inside CoverBatch spans"
	}
	return ""
}

func layerReport(w workloadSpec, m map[string]metric) string {
	var sb strings.Builder
	sb.WriteString("per-layer ledger (traced run):\n")
	for _, l := range layerMetrics {
		note := ""
		if m[l.name].Value == 0 {
			if why := absent(w, l.name); why != "" {
				note = "  (absent: " + why + ")"
			}
		}
		fmt.Fprintf(&sb, "  %-30s %14.4f %-5s%s\n", l.name, m[l.name].Value, l.unit, note)
	}
	return sb.String()
}
