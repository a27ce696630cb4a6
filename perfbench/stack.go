package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathcover/internal/cluster"
	"pathcover/internal/daemon"
)

// nodeConfig is a daemon configured as a bare `pathcoverd` would be:
// every field carries that binary's flag default. The zero Config
// differs (no result cache, no request timeout), so it is spelled out.
func nodeConfig() daemon.Config {
	return daemon.Config{
		MaxBody:        64 << 20,
		RequestTimeout: 30 * time.Second,
		CacheMB:        64,
		RetryAfter:     time.Second,
		BatchShare:     0.5,
		AdaptInterval:  250 * time.Millisecond,
		LogOutput:      io.Discard,
	}
}

// gatewayOptions are the `pathcover-gateway` flag defaults.
func gatewayOptions() cluster.Options {
	return cluster.Options{
		VNodes:        128,
		BaseBackoff:   25 * time.Millisecond,
		MaxBackoff:    time.Second,
		HedgeFloor:    5 * time.Millisecond,
		FailThreshold: 3,
		ProbationOKs:  2,
		HealthyOKs:    3,
		ProbeInterval: 250 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		MaxBody:       64 << 20,
	}
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name string, rid int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, rid: rid, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	t.mu.Unlock()
}

// ridParam carries a traced request's id. The gateway forwards the query
// string to the node, and neither reads this parameter.
const ridParam = "bench_rid"

// wrap records a span named name around every call of h that carries a
// request id.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid, err := strconv.ParseInt(r.URL.Query().Get(ridParam), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		if err == nil {
			t.record(name, rid, start, time.Now())
		}
	})
}

// byName returns the spans called name, keyed by request id.
func (t *tracer) byName(name string) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range t.spans {
		if s.name == name {
			out[s.rid] = append(out[s.rid], s)
		}
	}
	return out
}

// server is one HTTP server on a loopback port; done closes once its
// Serve loop has returned.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// node is one daemon serving on loopback TCP.
type node struct {
	server
	d *daemon.Server
}

// stack is the serving system under test: daemon nodes, optionally a
// gateway in front, and the client that drives whichever is in front.
type stack struct {
	nodes  []*node
	gw     *cluster.Gateway
	gwSrv  *server
	front  string
	client *http.Client
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // always ErrServerClosed: close is the only way out
	}()
	return s, nil
}

// buildStack starts nNodes daemons and, when gateway is set, a gateway
// over them, then waits until the front answers /healthz. With a
// tracer, every handler records its spans.
func buildStack(nNodes int, gateway bool, conns int, tr *tracer) (*stack, error) {
	st := &stack{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
	var urls []string
	for i := 0; i < nNodes; i++ {
		d := daemon.New(nodeConfig())
		srv, err := serve(tr.wrap("node", d.Handler()))
		if err != nil {
			d.Close()
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, &node{server: *srv, d: d})
		urls = append(urls, srv.url)
	}
	st.front = urls[0]
	if gateway {
		st.gw = cluster.New(urls, gatewayOptions())
		st.gw.Start()
		srv, err := serve(tr.wrap("gateway", st.gw.Handler()))
		if err != nil {
			st.close()
			return nil, err
		}
		st.gwSrv, st.front = srv, srv.url
	}
	for _, u := range append(urls, st.front) {
		resp, err := st.client.Get(u + "/healthz")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("healthz %s: %w", u, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return st, nil
}

// close stops the gateway, the servers and the daemons' pools, and
// waits for the servers' goroutines to see the close.
func (st *stack) close() {
	if st.gw != nil {
		st.gw.Close()
	}
	if st.gwSrv != nil {
		st.gwSrv.close()
	}
	for _, n := range st.nodes {
		n.close()
		n.d.Close()
	}
	st.client.CloseIdleConnections()
}

// post sends one request and reads its whole answer.
func (st *stack) post(ctx context.Context, path string, rid int64, body []byte) (int, []byte, error) {
	url := st.front + path
	if rid >= 0 {
		url += "?" + ridParam + "=" + strconv.FormatInt(rid, 10)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runPhase sends reqs to completion from `workers` goroutines, each
// taking the next request in sequence. With rate > 0 the phase is an
// open loop: request i is due at i/rate after the start and a worker
// holds it until then; a request that finds every worker busy is sent
// late and its latency still counts from its due time. With rate == 0
// it is a closed loop: each worker sends its next request as soon as its
// previous answer is in. Client spans carry ids ridBase+i.
func (st *stack) runPhase(reqs []request, rate float64, workers int, tr *tracer, ridBase int64) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				var due time.Duration
				if rate > 0 {
					due = time.Duration(float64(i) / rate * float64(time.Second))
					if d := due - time.Since(t0); d > 0 {
						time.Sleep(d)
					}
				}
				sent := time.Since(t0)
				if rate == 0 {
					due = sent
				}
				rid := int64(-1)
				if tr != nil {
					rid = ridBase + int64(i)
				}
				status, body, err := st.post(context.Background(), reqs[i].path, rid, reqs[i].body)
				done := time.Since(t0)
				tr.record("client", rid, t0.Add(sent), t0.Add(done))
				out[i] = sample{due: due, sent: sent, done: done, status: status, err: err, resp: body}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// shedTotal sums a node's pathcoverd_shed_total series from its
// /metrics page.
func (st *stack) shedTotal() (float64, error) {
	total := 0.0
	for _, n := range st.nodes {
		resp, err := st.client.Get(n.url + "/metrics")
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "pathcoverd_shed_total") {
				continue
			}
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				resp.Body.Close()
				return 0, fmt.Errorf("metrics line %q: %w", line, err)
			}
			total += v
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// counters is the server-side state a run reads before and after its
// timed phases.
type counters struct {
	hits, misses, coalesced, evictions int64
	rejected                           int64
	arenaBytes                         int64
	gwRequests, gwRetries, gwHedged    int64
	shed                               float64
	shardWorkers                       int
}

func (st *stack) counters() (counters, error) {
	var c counters
	for _, n := range st.nodes {
		ps := n.d.Pool().Stats()
		if ps.Cache == nil {
			return c, errors.New("daemon runs without its result cache")
		}
		c.hits += ps.Cache.Hits
		c.misses += ps.Cache.Misses
		c.coalesced += ps.Cache.Coalesced
		c.evictions += ps.Cache.Evictions
		c.rejected += ps.Rejected
		c.arenaBytes += ps.ArenaBytes
		c.shardWorkers = ps.Shards[0].Workers
	}
	if st.gw != nil {
		gs := st.gw.Stats()
		c.gwRequests, c.gwRetries, c.gwHedged = gs.Requests, gs.Retries, gs.Hedged
	}
	var err error
	c.shed, err = st.shedTotal()
	return c, err
}

func (c counters) minus(o counters) counters {
	return counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		coalesced: c.coalesced - o.coalesced, evictions: c.evictions - o.evictions,
		rejected: c.rejected - o.rejected, arenaBytes: c.arenaBytes,
		gwRequests: c.gwRequests - o.gwRequests, gwRetries: c.gwRetries - o.gwRetries,
		gwHedged: c.gwHedged - o.gwHedged, shed: c.shed - o.shed, shardWorkers: c.shardWorkers,
	}
}

// plus adds two intervals' counters; the gauges are o's.
func (c counters) plus(o counters) counters {
	return counters{
		hits: c.hits + o.hits, misses: c.misses + o.misses,
		coalesced: c.coalesced + o.coalesced, evictions: c.evictions + o.evictions,
		rejected: c.rejected + o.rejected, arenaBytes: o.arenaBytes,
		gwRequests: c.gwRequests + o.gwRequests, gwRetries: c.gwRetries + o.gwRetries,
		gwHedged: c.gwHedged + o.gwHedged, shed: c.shed + o.shed, shardWorkers: o.shardWorkers,
	}
}
