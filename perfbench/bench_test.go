package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pathcover"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	got := tail(xs)
	if got.value != 90 || got.beyond != 10 || got.pct != 90 || got.n != 100 {
		t.Fatalf("tail of 1..100 = %+v, want value 90 at p90 with 10 beyond", got)
	}
	got = tail(xs[:11])
	if got.beyond != 10 || got.value != 90 {
		t.Fatalf("tail of 11 samples = %+v, want the smallest with 10 beyond", got)
	}
	got = tail([]float64{3, 1, 2})
	if got.value != 3 || got.beyond != 0 || got.pct != 100 {
		t.Fatalf("tail of 3 samples = %+v, want the maximum, flagged by beyond=0", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

func TestSelfTime(t *testing.T) {
	p := span{start: 0, end: 100}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []span{{start: 10, end: 40}}, 70},
		{"overlapping children count once", []span{{start: 10, end: 30}, {start: 20, end: 40}}, 70},
		{"disjoint children", []span{{start: 10, end: 20}, {start: 50, end: 60}}, 80},
		{"child outliving the parent is clipped", []span{{start: 90, end: 150}}, 90},
		{"child entirely outside", []span{{start: 120, end: 150}}, 100},
		{"unsorted", []span{{start: 60, end: 70}, {start: 0, end: 10}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(p, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	s := sample{due: 10 * time.Millisecond, sent: 25 * time.Millisecond, done: 40 * time.Millisecond}
	if s.latency() != 30*time.Millisecond || s.lag() != 15*time.Millisecond {
		t.Fatalf("latency %v lag %v, want 30ms and 15ms", s.latency(), s.lag())
	}
}

// A generator with one connection to a server slower than the due
// rate falls behind; every later request's latency must include the
// time it spent waiting to be sent.
func TestOpenLoopChargesGeneratorLag(t *testing.T) {
	const service = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
	}))
	defer srv.Close()
	st := &stack{front: srv.URL, client: srv.Client()}
	reqs := make([]request, 5)
	for i := range reqs {
		reqs[i] = request{path: "/cover", body: []byte("{}")}
	}
	ss, _ := st.runPhase(reqs, 1000, 1, nil, 0) // due every 1ms
	for i, s := range ss {
		if s.status != 200 || s.err != nil {
			t.Fatalf("request %d: status %d err %v", i, s.status, s.err)
		}
		if s.due != time.Duration(i)*time.Millisecond {
			t.Fatalf("request %d due at %v", i, s.due)
		}
		if s.latency() != s.done-s.due || s.latency() < s.done-s.sent {
			t.Fatalf("request %d: latency %v not counted from due time", i, s.latency())
		}
	}
	last := ss[len(ss)-1]
	if last.lag() < 3*service {
		t.Fatalf("last request lag %v; a one-connection generator behind a %v server should run late", last.lag(), service)
	}
	if last.latency() < 4*service {
		t.Fatalf("last request latency %v omits its wait behind earlier requests", last.latency())
	}
}

func bodies(in *inputs) [][]byte {
	var out [][]byte
	for _, phase := range [][]request{in.warm, in.open, in.closed} {
		for _, r := range phase {
			out = append(out, r.body)
		}
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(5, 4, 6), w.gen(5, 4, 6), w.gen(6, 4, 6)
		ba, bb, bc := bodies(a), bodies(b), bodies(c)
		if len(ba) == 0 || len(ba) != len(bb) {
			t.Fatalf("%s: %d and %d requests for one seed", w.name, len(ba), len(bb))
		}
		same := true
		for i := range ba {
			if !bytes.Equal(ba[i], bb[i]) {
				t.Fatalf("%s: request %d differs between two runs of one seed", w.name, i)
			}
			same = same && bytes.Equal(ba[i], bc[i])
		}
		if same {
			t.Errorf("%s: seeds 5 and 6 sent identical requests", w.name)
		}
	}
}

func TestUniqueCotreeHasNoRepeatedCanonicalHash(t *testing.T) {
	in := genUniqueCotree(3, 30, 30)
	seen := map[[2]uint64]bool{}
	for _, r := range append(in.open, in.closed...) {
		var sp graphSpec
		if err := json.Unmarshal(r.body, &sp); err != nil {
			t.Fatal(err)
		}
		g, err := pathcover.ParseCotree(sp.Cotree)
		if err != nil {
			t.Fatal(err)
		}
		hi, lo, ok := g.CanonicalHash()
		if !ok {
			t.Fatal("cotree without a canonical hash")
		}
		if seen[[2]uint64{hi, lo}] {
			t.Fatalf("canonical hash %016x%016x repeats", hi, lo)
		}
		seen[[2]uint64{hi, lo}] = true
	}
}

func TestSizeQuantileCoversTheClass(t *testing.T) {
	prev := 0
	for i := 0; i < 1000; i++ {
		n := sizeQuantile(float64(i)/1000, 7, 14)
		if n < prev || n < 1<<7 || n >= 1<<15 {
			t.Fatalf("sizeQuantile(%v) = %d after %d: not monotone within [128, 32768)", float64(i)/1000, n, prev)
		}
		prev = n
	}
	// About 70% of SizeServing's mass lies below 2^12.
	if n := sizeQuantile(0.69, 7, 14); n >= 1<<12 {
		t.Fatalf("the 69th percentile is %d, want below 4096", n)
	}
	if n := sizeQuantile(0.75, 7, 14); n < 1<<12 {
		t.Fatalf("the 75th percentile is %d, want at least 4096", n)
	}
}

func TestCheckCoverCatchesWrongAnswers(t *testing.T) {
	g, err := pathcover.ParseCotree("(1 (0 a b) c)") // the path a-c-b
	if err != nil {
		t.Fatal(err)
	}
	good := coverAnswer{N: 3, NumPaths: 1, Paths: [][]int{{0, 2, 1}}, Exact: true, Backend: "cograph", LowerBound: 1}
	if err := checkCover(g, &good); err != nil {
		t.Fatalf("correct cover rejected: %v", err)
	}
	for name, bad := range map[string]coverAnswer{
		"not minimum": {N: 3, NumPaths: 2, Paths: [][]int{{0, 2}, {1}}, Exact: true, Backend: "cograph", LowerBound: 2},
		"not a path":  {N: 3, NumPaths: 1, Paths: [][]int{{0, 1, 2}}, Exact: true, Backend: "cograph", LowerBound: 1},
		"wrong count": {N: 3, NumPaths: 2, Paths: [][]int{{0, 2, 1}}, Exact: true, Backend: "cograph", LowerBound: 1},
		"wrong n":     {N: 4, NumPaths: 1, Paths: [][]int{{0, 2, 1}}, Exact: true, Backend: "cograph", LowerBound: 1},
		"bad label":   {N: 3, NumPaths: 1, Paths: [][]int{{0, 2, 1}}, Exact: false, Backend: "cograph", LowerBound: 1},
	} {
		if err := checkCover(g, &bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestChargeRejectsDriftingCost(t *testing.T) {
	o := newOutcome()
	c := coverAnswer{}
	c.Stats.Time, c.Stats.Work = 5, 50
	if err := o.charge(1, &c); err != nil {
		t.Fatal(err)
	}
	if err := o.charge(1, &c); err != nil {
		t.Fatalf("same cost twice: %v", err)
	}
	hit := coverAnswer{} // cache hits are uncharged
	if err := o.charge(1, &hit); err != nil {
		t.Fatalf("uncharged hit: %v", err)
	}
	c.Stats.Work = 51
	if err := o.charge(1, &c); err == nil {
		t.Fatal("a second, different cost for the same bytes was accepted")
	}
	if got := o.simTotals(); got != (simCost{5, 50}) {
		t.Fatalf("totals %+v", got)
	}
}

func TestLedgerFlagsChangedCosts(t *testing.T) {
	dir := t.TempDir()
	if _, err := ledger(dir, "w-1-x", map[int]simCost{1: {3, 30}, 2: {4, 40}}); err != nil {
		t.Fatal(err)
	}
	// A run that charged a subset (the rest were cache hits) agrees.
	if _, err := ledger(dir, "w-1-x", map[int]simCost{1: {3, 30}}); err != nil {
		t.Fatalf("same costs: %v", err)
	}
	if _, err := ledger(dir, "w-1-x", map[int]simCost{2: {4, 41}}); err == nil {
		t.Fatal("a changed cost for the same inputs was accepted")
	}
	if _, err := ledger(dir, "w-1-y", map[int]simCost{2: {4, 41}}); err != nil {
		t.Fatalf("other inputs share the record: %v", err)
	}
}

func TestBestLatencyTakesEachRequestsLowest(t *testing.T) {
	at := func(lat ...time.Duration) []sample {
		ss := make([]sample, len(lat))
		for i, l := range lat {
			ss[i] = sample{due: time.Second, done: time.Second + l, status: 200}
		}
		return ss
	}
	rounds := [][]sample{
		at(5*time.Millisecond, 1*time.Millisecond, 7*time.Millisecond),
		at(2*time.Millisecond, 4*time.Millisecond, 9*time.Millisecond),
		at(3*time.Millisecond, 3*time.Millisecond, 1*time.Millisecond),
	}
	rounds[2][2].status = 503 // a quick refusal is no fast answer
	got := bestLatenciesMS(rounds)
	want := []float64{2, 1, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("best latencies %v, want %v", got, want)
		}
	}
}

// Two clients that each wait 10 ms for every answer complete 200
// requests a second; the slower round does not count.
func TestCapacityByLittlesLaw(t *testing.T) {
	mk := func(lat time.Duration) round {
		ss := make([]sample, 4)
		for i := range ss {
			ss[i] = sample{done: lat, status: 200}
		}
		return round{closed: ss, closedGood: 4}
	}
	p := &pass{conns: 2, closedN: 4, rounds: []round{mk(10 * time.Millisecond), mk(30 * time.Millisecond)}}
	if got := p.capacity(); got < 199.99 || got > 200.01 {
		t.Fatalf("capacity %v graphs/s, want 200", got)
	}
	p.rounds[1].closedGood = 3 // a failed graph in any round counts
	if got := p.capacity(); got < 149.99 || got > 150.01 {
		t.Fatalf("capacity with a failure %v graphs/s, want 150", got)
	}
}

// A round that repeats an answer already verified skips the check; a
// different answer for the same bytes is checked and caught.
func TestRepeatedAnswersStillCatchWrongOnes(t *testing.T) {
	spec := []byte(`{"cotree":"(1 (0 a b) c)"}`)
	in := &inputs{items: []item{{n: 3, spec: spec}}}
	reqs := []request{{path: "/cover", body: spec, items: []int{0}}}
	answer := func(paths string) []sample {
		body := `{"n":3,"num_paths":1,"paths":` + paths + `,"exact":true,"backend":"cograph","lower_bound":1,"gap":0,"stats":{"procs":1,"time":4,"work":9}}`
		return []sample{{status: 200, resp: []byte(body)}}
	}
	o := newOutcome()
	o.check(in, reqs, answer(`[[0,2,1]]`), 1)
	o.check(in, reqs, answer(`[[0,2,1]]`), 1)
	if o.failed != 0 || o.graphs != 2 || o.routes["cograph"] != 2 {
		t.Fatalf("two correct answers: failed %d of %d, routes %v", o.failed, o.graphs, o.routes)
	}
	o.check(in, reqs, answer(`[[0,1,2]]`), 1) // 0 and 1 are not adjacent
	if o.wrong != 1 {
		t.Fatalf("a wrong answer after a verified one: wrong=%d", o.wrong)
	}
}
