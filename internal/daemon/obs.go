package daemon

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"pathcover"
	"pathcover/internal/metrics"
)

// QoS tier names: interactive requests (/cover, /hamiltonian, /graphs)
// versus bulk /batch traffic. The tiers get separate latency histograms
// and separate admission treatment (see qos.go).
const (
	tierInteractive = "interactive"
	tierBatch       = "batch"
)

// serverMetrics is the daemon's own counter state: everything that is
// not already a counter on the pool, cache or registry (those are
// rendered straight off their stats snapshots at scrape time, so a
// scrape can never disagree with /stats).
type serverMetrics struct {
	requests  metrics.CounterVec // by endpoint
	responses metrics.CounterVec // by status code
	widths    metrics.CounterVec // by index-width route of solved covers
	shed      metrics.CounterVec // by reason: cost | batch_share
	degraded  metrics.Counter    // covers downgraded to the approx backend
	latency   map[string]*metrics.Histogram
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		latency: map[string]*metrics.Histogram{
			tierInteractive: metrics.NewHistogram(nil),
			tierBatch:       metrics.NewHistogram(nil),
		},
	}
}

// reqInfo is the per-request observation record. The instrument wrapper
// allocates one into the request context; handlers fill in what they
// learn (graph size, route, cache outcome) and the wrapper turns it
// into histogram observations and an optional log line on the way out.
type reqInfo struct {
	tier     string
	n        int
	backend  string
	cache    string
	shard    int
	degraded bool
}

type reqInfoKey struct{}

// info returns the request's observation record, or a throwaway one for
// requests that bypassed the instrument wrapper (tests hitting handlers
// directly).
func info(r *http.Request) *reqInfo {
	if ri, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		return ri
	}
	return &reqInfo{shard: -2}
}

// statusRecorder captures the response status for the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps one endpoint's handler with the observation layer:
// request/response counters, the tier latency histogram, and the
// sampled request log. Observation is strictly off the solve path — it
// reads the clock and bumps atomics, and never touches the pool — so
// sim counters are bit-identical with instrumentation on or off.
func (s *Server) instrument(endpoint, tier string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ri := &reqInfo{tier: tier, shard: -2}
		sampled := s.reqlog.sample()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri)))
		elapsed := time.Since(start)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.met.requests.With(endpoint).Inc()
		s.met.responses.With(strconv.Itoa(rec.status)).Inc()
		s.met.latency[tier].Observe(elapsed)
		if ri.n > 0 && rec.status == http.StatusOK && ri.shard != -2 {
			s.met.widths.With(pathcover.RouteWidth(ri.n)).Inc()
		}
		if ri.degraded {
			s.met.degraded.Inc()
		}
		if sampled {
			s.reqlog.emit(reqLogEntry{
				TS:       start.UTC().Format(time.RFC3339Nano),
				Method:   r.Method,
				Endpoint: endpoint,
				Status:   rec.status,
				N:        ri.n,
				Width:    widthOf(ri),
				Backend:  ri.backend,
				Cache:    ri.cache,
				Shard:    ri.shard,
				Tier:     tier,
				Degraded: ri.degraded,
				MS:       float64(elapsed.Nanoseconds()) / 1e6,
			})
		}
	}
}

// widthOf renders the index-width route for the log line (empty when no
// graph was solved).
func widthOf(ri *reqInfo) string {
	if ri.n <= 0 {
		return ""
	}
	return pathcover.RouteWidth(ri.n)
}

// handleMetrics renders the Prometheus-text exposition: the daemon's
// own request counters plus point-in-time families derived from the
// pool, cache and registry stats snapshots.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	mw := metrics.NewWriter(w)

	mw.CounterVec("pathcoverd_requests_total", "HTTP requests by endpoint.",
		"endpoint", s.met.requests.Snapshot())
	mw.CounterVec("pathcoverd_responses_total", "HTTP responses by status code.",
		"code", s.met.responses.Snapshot())
	mw.Histogram("pathcoverd_request_seconds",
		"Request latency by QoS tier (p50/p95/p99 via histogram_quantile).",
		s.met.latency, "tier")
	mw.CounterVec("pathcoverd_width_route_total",
		"Solved covers by index-width route (int16/int32 kernels).",
		"width", s.met.widths.Snapshot())
	mw.CounterVec("pathcoverd_shed_total",
		"Requests shed by the QoS layer, by reason (cost = projected queue cost over budget, batch_share = batch tier at its admission share).",
		"reason", s.met.shed.Snapshot())
	mw.Counter("pathcoverd_degraded_total",
		"Cover requests downgraded to the approximation backend instead of shed.",
		float64(s.met.degraded.Value()))

	mw.Gauge("pathcoverd_shards", "Live solver shards (grows/shrinks under -adapt).",
		float64(st.ActiveShards))
	mw.Gauge("pathcoverd_shards_max", "Physical shard ceiling Resize can grow to.",
		float64(s.pool.NumShards()))
	mw.Counter("pathcoverd_pool_resizes_total", "Completed live-shard resizes.",
		float64(st.Resizes))
	mw.Gauge("pathcoverd_pool_in_flight", "Admitted calls inside the pool (queued + executing).",
		float64(st.InFlight))
	mw.Gauge("pathcoverd_pool_queue_depth", "Admission bound (0 = unbounded).",
		float64(st.QueueDepth))
	mw.Counter("pathcoverd_pool_rejected_total", "Calls rejected by saturated admission.",
		float64(st.Rejected))
	mw.Counter("pathcoverd_pool_canceled_total", "Calls canceled by their context.",
		float64(st.Canceled))
	mw.Counter("pathcoverd_pool_restarts_total", "Shard solvers rebuilt after a panic.",
		float64(st.Restarts))
	mw.Counter("pathcoverd_batches_total", "Batch calls admitted.", float64(st.Batches))
	mw.Gauge("pathcoverd_arena_bytes", "Retained scratch-arena bytes across live shards.",
		float64(st.ArenaBytes))

	shardLoad := make([]metrics.LabelledValue, 0, len(st.Shards))
	shardCalls := make([]metrics.LabelledValue, 0, len(st.Shards))
	shardArena := make([]metrics.LabelledValue, 0, len(st.Shards))
	for _, row := range st.Shards {
		l := fmt.Sprintf("%d", row.Shard)
		shardLoad = append(shardLoad, metrics.LabelledValue{Label: l, Value: float64(row.Load)})
		shardCalls = append(shardCalls, metrics.LabelledValue{Label: l, Value: float64(row.Calls)})
		shardArena = append(shardArena, metrics.LabelledValue{Label: l, Value: float64(row.ArenaBytes)})
	}
	mw.GaugeVec("pathcoverd_shard_queue_depth",
		"Outstanding dispatch load per shard (queued + executing vertices).",
		"shard", shardLoad)
	mw.CounterVec("pathcoverd_shard_calls_total", "Calls served per shard.",
		"shard", shardCalls)
	mw.GaugeVec("pathcoverd_shard_arena_bytes",
		"Retained scratch-arena bytes per shard as of its last call.",
		"shard", shardArena)

	if st.Cache != nil {
		mw.Counter("pathcoverd_cache_hits_total", "Result-cache hits (served without a shard).",
			float64(st.Cache.Hits))
		mw.Counter("pathcoverd_cache_misses_total", "Result-cache misses (filled by a solve).",
			float64(st.Cache.Misses))
		mw.Counter("pathcoverd_cache_coalesced_total", "Requests coalesced onto an in-flight solve.",
			float64(st.Cache.Coalesced))
		mw.Counter("pathcoverd_cache_evictions_total", "Cache entries evicted for capacity.",
			float64(st.Cache.Evictions))
		mw.Gauge("pathcoverd_cache_bytes", "Resident result-cache bytes.",
			float64(st.Cache.Bytes))
	}
	if err := mw.Err(); err != nil {
		// The write failed mid-document (client gone); nothing to salvage.
		return
	}
}

// OpsHandler returns the operational mux served on the -ops port:
// /metrics plus the net/http/pprof endpoints. The pprof handlers are
// only reachable here — never on the serving port — so exposing the
// serving port to untrusted clients does not expose profiling. /metrics
// is additionally registered on the serving mux, where scraping it is
// harmless and convenient for single-port deployments.
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
