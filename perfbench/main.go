// Command perfbench is the repository's serving benchmark. It starts
// the real serving stack in this process — internal/daemon nodes on
// loopback TCP, with an internal/cluster gateway in front for one
// workload, all configured with the shipped pathcoverd and
// pathcover-gateway flag defaults — sends it a fixed, seed-determined
// request sequence in several rounds, checks every answer, and prints
// the end-to-end metrics. With -trace 1 it repeats the run with spans around every
// handler and around its own calls into each layer's public functions,
// and prints the per-layer ledger instead.
//
//	bash perfbench/run.sh --workload unique-cotree --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// See perfbench/README.md for the workloads and what each metric is
// expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// workloadSpec is one workload: the stack it runs on and its phase sizes. The
// request counts are fixed by the rates and --seconds, never by how
// fast the run goes, so a seed always sends the same requests.
type workloadSpec struct {
	name    string
	nodes   int
	gateway bool
	// openRate is the open-loop phase's fixed request rate per second,
	// a fifth to a third of the closed-loop capacity on a 2-CPU host; 0
	// means the workload has no open-loop phase.
	openRate float64
	// openShare is the share of each round given to the open loop.
	openShare float64
	// closedRate is the expected closed-loop requests per second; it
	// only sizes the closed phase.
	closedRate float64
	// rounds is how many times a run sends the same request sequence;
	// --seconds is shared among them.
	rounds int
	// fresh builds and warms a new stack for every round, so each round
	// finds the cache as the first did. Otherwise one stack serves every
	// round, after `setups` timed builds of which the last is kept.
	fresh  bool
	setups int
	gen    func(seed uint64, nOpen, nClosed int) *inputs
}

var workloads = []workloadSpec{
	{name: "unique-cotree", nodes: 1, openRate: 10, openShare: 0.7, closedRate: 45, rounds: 5, fresh: true, gen: genUniqueCotree},
	{name: "repeat-gateway", nodes: 2, gateway: true, openRate: 80, openShare: 0.5, closedRate: 250, rounds: 10, setups: 3, gen: genRepeatGateway},
	{name: "batch-edges", nodes: 1, closedRate: 16, rounds: 8, fresh: true,
		gen: func(seed uint64, _, nClosed int) *inputs { return genBatchEdges(seed, nClosed) }},
}

// counts splits one round of a run of the given length into its
// phases.
func (w workloadSpec) counts(seconds int) (nOpen, nClosed int) {
	per := float64(seconds) / float64(w.rounds)
	if w.openRate == 0 {
		return 0, int(w.closedRate*per + 0.5)
	}
	open := per * w.openShare
	return int(w.openRate*open + 0.5), int(w.closedRate*(per-open) + 0.5)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: unique-cotree, repeat-gateway or batch-edges")
	seed := flag.Uint64("seed", 1, "input seed; the same seed sends the same requests")
	seconds := flag.Int("seconds", 10, "nominal run length; fixes the request counts")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger of a traced run instead of the end-to-end metrics")
	ledgerDir := flag.String("ledger", ".bench_build/perfbench/ledger", "directory recording each seed's simulated totals")
	flag.Parse()
	var w workloadSpec
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w.name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload of unique-cotree|repeat-gateway|batch-edges, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	conns := runtime.NumCPU()
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("host: %s\n", hostStamp())

	nOpen, nClosed := w.counts(*seconds)
	t0 := time.Now()
	in := w.gen(*seed, nOpen, nClosed)
	fmt.Printf("inputs: %s; generated in %.2fs\n", describe(in), time.Since(t0).Seconds())

	base, err := measure(w, in, conns, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{Attempted: base.out.graphs, Failed: base.out.failed, Metrics: map[string]metric{}}
	e2e := base.endToEnd()
	fmt.Print(base.report(w, e2e))
	broken := base.out.wrong > 0
	sim := base.out.simTotals()
	status, err := ledger(*ledgerDir, fmt.Sprintf("%s-%d-%s", w.name, *seed, in.digest()), base.out.sim)
	if err != nil {
		fmt.Printf("BROKEN: %v\n", err)
		broken = true
	} else {
		fmt.Printf("simulated totals: time=%d work=%d over %d charged presentations (%s)\n", sim.Time, sim.Work, len(base.out.sim), status)
	}

	if *trace == 0 {
		res.Metrics = e2e
	} else {
		tr := newTracer()
		traced, err := measure(w, in, conns, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		res.Attempted += traced.out.graphs
		res.Failed += traced.out.failed
		broken = broken || traced.out.wrong > 0
		if err := agree(traced.out.sim, base.out.sim); err != nil {
			fmt.Printf("BROKEN: %v in the untraced run\n", err)
			broken = true
		}
		rep, err := replay(in, base, conns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: replay: %v\n", err)
			return 1
		}
		if rep.simMismatch != "" {
			fmt.Printf("BROKEN: %s\n", rep.simMismatch)
			broken = true
		}
		res.Metrics = layers(w, base, traced, tr, rep, e2e)
		fmt.Print(layerReport(w, res.Metrics))
	}
	if base.out.firstErr != nil {
		fmt.Printf("first failure: %v\n", base.out.firstErr)
	}
	res.Correct = !broken
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if broken {
		return 1
	}
	return 0
}

// round is one fresh stack's set-up and timed phases.
type round struct {
	open       []sample
	closed     []sample
	openWall   time.Duration
	closedWall time.Duration
	closedGood int // graphs answered correctly in the closed phase
}

// pass is one measured run: its rounds and what they add up to.
type pass struct {
	setupS      []float64
	rounds      []round
	checkS      float64 // seconds spent checking answers
	closedN     int     // graphs asked in one round's closed phase
	conns       int     // clients of the closed phase
	allocs      uint64  // over the closed phases
	allocBytes  uint64
	gcCycles    uint64        // over the timed phases
	cpu         time.Duration // process CPU over the timed phases
	timedGraphs int
	liveHeap    uint64
	srv         counters // server counters over the timed phases
	out         *outcome
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

// runtimeSamples is reused by every read, so a read allocates nothing
// and an allocation count taken around a call counts only the call.
// Only the main goroutine reads.
var runtimeSamples = func() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	return s
}()

func readRuntime() [4]uint64 {
	metrics.Read(runtimeSamples)
	var out [4]uint64
	for i := range runtimeSamples {
		out[i] = runtimeSamples[i].Value.Uint64()
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs w.rounds rounds and checks every answer. With a tracer,
// handlers and client calls record spans.
func measure(w workloadSpec, in *inputs, conns int, tr *tracer) (*pass, error) {
	p := &pass{out: newOutcome(), conns: conns}
	for _, r := range in.closed {
		p.closedN += r.graphs()
	}
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for k := 0; k < w.rounds; k++ {
		if k == 0 || w.fresh {
			for b := 0; b < max(w.setups, 1); b++ {
				if st != nil {
					st.close()
					st = nil
				}
				var err error
				if st, err = p.setUp(w, in, conns, tr); err != nil {
					return nil, err
				}
			}
		}
		rd, err := p.round(st, w, in, conns, tr, int64(k))
		if err != nil {
			return nil, err
		}
		p.rounds = append(p.rounds, rd)
	}
	runtime.GC()
	p.liveHeap = readRuntime()[3]
	return p, nil
}

// setUp builds a stack and sends it the warm-up pass, timing both as
// one set-up, then checks the warm-up answers.
func (p *pass) setUp(w workloadSpec, in *inputs, conns int, tr *tracer) (*stack, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := buildStack(w.nodes, w.gateway, conns, tr)
	if err != nil {
		return nil, err
	}
	warm, _ := st.runPhase(in.warm, 0, conns, nil, 0)
	p.setupS = append(p.setupS, time.Since(t0).Seconds())
	t0 = time.Now()
	p.out.check(in, in.warm, warm, conns)
	p.checkS += time.Since(t0).Seconds()
	return st, nil
}

// round runs the timed phases once on st and checks the answers
// outside the timed window.
func (p *pass) round(st *stack, w workloadSpec, in *inputs, conns int, tr *tracer, k int64) (round, error) {
	var rd round
	runtime.GC()
	c0, err := st.counters()
	if err != nil {
		return rd, err
	}
	// Client span ids are unique across rounds and phases.
	ridBase := k << 40
	cpu0 := cpuTime()
	r0 := readRuntime()
	if len(in.open) > 0 {
		rd.open, rd.openWall = st.runPhase(in.open, w.openRate, conns, tr, ridBase)
	}
	r1 := readRuntime()
	rd.closed, rd.closedWall = st.runPhase(in.closed, 0, conns, tr, ridBase+1<<32)
	r2 := readRuntime()
	p.cpu += cpuTime() - cpu0
	c1, err := st.counters()
	if err != nil {
		return rd, err
	}
	p.srv = p.srv.plus(c1.minus(c0))
	p.allocs += r2[0] - r1[0]
	p.allocBytes += r2[1] - r1[1]
	p.gcCycles += r2[2] - r0[2]

	t0 := time.Now()
	p.out.check(in, in.open, rd.open, conns)
	failed := p.out.failed
	p.out.check(in, in.closed, rd.closed, conns)
	rd.closedGood = p.closedN - (p.out.failed - failed)
	p.checkS += time.Since(t0).Seconds()
	for _, ss := range [][]sample{rd.open, rd.closed} {
		for i := range ss {
			ss[i].resp = nil
		}
	}
	for _, r := range append(in.open, in.closed...) {
		p.timedGraphs += r.graphs()
	}
	return rd, nil
}

// p50Sets are each round's samples p50_ms is read from: the open-loop
// phase, or the closed loop for a workload without one.
func (p *pass) p50Sets() [][]sample {
	var sets [][]sample
	for _, rd := range p.rounds {
		if len(rd.open) > 0 {
			sets = append(sets, rd.open)
		} else {
			sets = append(sets, rd.closed)
		}
	}
	return sets
}

// closedSets are each round's closed-loop samples, which tail_ms and
// capacity_gps are read from.
func (p *pass) closedSets() [][]sample {
	var sets [][]sample
	for _, rd := range p.rounds {
		sets = append(sets, rd.closed)
	}
	return sets
}

// openSamples are the open-loop samples of every round.
func (p *pass) openSamples() []sample {
	var out []sample
	for _, rd := range p.rounds {
		out = append(out, rd.open...)
	}
	return out
}

// capacities are each round's correctly answered graphs per second in
// the closed loop.
func (p *pass) capacities() []float64 {
	var out []float64
	for _, rd := range p.rounds {
		out = append(out, float64(rd.closedGood)/rd.closedWall.Seconds())
	}
	return out
}

// capacity is the closed loop's correctly answered graphs per second
// by Little's law over each request's lowest latency across the
// rounds: conns clients that each wait for their answer complete
// conns requests per mean latency. A round's own throughput counts
// the seconds another tenant of the host took from it; a request's
// lowest latency is its reading least slowed.
func (p *pass) capacity() float64 {
	good := p.closedN
	for _, rd := range p.rounds {
		good = min(good, rd.closedGood)
	}
	total := 0.0
	for _, l := range bestLatenciesMS(p.closedSets()) {
		total += l / 1000
	}
	return float64(p.conns*good) / total
}

func (p *pass) endToEnd() map[string]metric {
	graphs := float64(p.closedN * len(p.rounds))
	m := map[string]metric{
		"setup_s":            {median(p.setupS), "s"},
		"p50_ms":             {median(bestLatenciesMS(p.p50Sets())), "ms"},
		"tail_ms":            {tail(bestLatenciesMS(p.closedSets())).value, "ms"},
		"capacity_gps":       {p.capacity(), "graphs/s"},
		"ok_pct":             {100 * float64(p.out.graphs-p.out.failed) / float64(p.out.graphs), "%"},
		"allocs_per_graph":   {float64(p.allocs) / graphs, "count"},
		"alloc_kb_per_graph": {float64(p.allocBytes) / 1024 / graphs, "KiB"},
		"live_heap_mb":       {float64(p.liveHeap) / (1 << 20), "MiB"},
	}
	return m
}

func (p *pass) report(w workloadSpec, m map[string]metric) string {
	lat := bestLatenciesMS(p.p50Sets())
	closed := bestLatenciesMS(p.closedSets())
	which := "open-loop phase"
	if len(p.rounds[0].open) == 0 {
		which = "closed-loop phase, per batch"
	}
	rd := p.rounds[0]
	s := fmt.Sprintf("phases per round: open %d requests at %.0f/s in %.2fs, closed %d requests on %d clients in %.2fs; %d rounds\n",
		len(rd.open), w.openRate, rd.openWall.Seconds(), len(rd.closed), p.conns, rd.closedWall.Seconds(), len(p.rounds))
	var p50s, tails []float64
	for i, ss := range p.p50Sets() {
		p50s = append(p50s, median(latenciesMS(ss)))
		tails = append(tails, tail(latenciesMS(p.rounds[i].closed)).value)
	}
	s += fmt.Sprintf("per round: p50_ms %v tail_ms %v capacity_gps %v\n", fmtList(p50s), fmtList(tails), fmtList(p.capacities()))
	s += fmt.Sprintf("setup_s            %10.4f s   median of %d set-ups %v\n", m["setup_s"].Value, len(p.setupS), fmtList(p.setupS))
	s += fmt.Sprintf("p50_ms             %10.3f ms  %s, %d requests, each at its lowest latency over the rounds, from due time\n", m["p50_ms"].Value, which, len(lat))
	s += fmt.Sprintf("tail_ms            %10.3f ms  closed-loop phase, %d requests at their lowest latency, %s\n", m["tail_ms"].Value, len(closed), tail(closed))
	if len(rd.open) > 0 {
		s += fmt.Sprintf("open-loop tail     %10.3f ms  not gated: %s of the p50_ms samples\n", tail(lat).value, tail(lat))
	}
	s += fmt.Sprintf("capacity_gps       %10.2f graphs/s  %d clients over the mean lowest latency of %d requests, %d graphs per round; best round %.2f\n",
		m["capacity_gps"].Value, p.conns, len(closed), p.closedN, maxOf(p.capacities()))
	s += fmt.Sprintf("fail_pct           %10.4f %%   %d of %d graphs failed, refused or wrong (%d wrong)\n",
		100-m["ok_pct"].Value, p.out.failed, p.out.graphs, p.out.wrong)
	s += fmt.Sprintf("ok_pct             %10.4f %%\n", m["ok_pct"].Value)
	s += fmt.Sprintf("allocs_per_graph   %10.1f     closed loops, client side included\n", m["allocs_per_graph"].Value)
	s += fmt.Sprintf("alloc_kb_per_graph %10.2f KiB\n", m["alloc_kb_per_graph"].Value)
	s += fmt.Sprintf("live_heap_mb       %10.2f MiB after a forced GC, last stack still up\n", m["live_heap_mb"].Value)
	s += fmt.Sprintf("answers checked in %.2fs\n", p.checkS)
	return s
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s + "]"
}
