package pathcover

// Canonical graph identity and the Pool's result cache.
//
// The cotree of a cograph is unique up to child order, so sorting
// children by a deterministic subtree key (internal/canon) collapses
// every relabelled or rewritten presentation of the same graph onto
// one canonical representative with a 128-bit hash. A Pool built with
// WithCache keys finished covers on that hash: a repeat of a graph the
// pool has already solved — even under a different vertex numbering —
// is served by remapping the cached canonical cover into the request's
// own numbering, without touching a shard.
//
// The cache layer never changes what a miss computes: misses run the
// untouched pipeline on the original tree (the canonical form is used
// only for the key and the host-side remap), so the simulated
// simtime/simwork counters of miss solves stay bit-identical to an
// uncached pool's. Hits and coalesced waits are uncharged — no shard
// call is recorded and the returned Cover carries zero Stats, like any
// other host-side output conversion.

import (
	"pathcover/internal/canon"
	"pathcover/internal/covercache"
)

// canonical returns the graph's memoized canonical form, computing it
// on first use. Cographs only: raw graphs have no cotree (and no cheap
// canonical form), so nil is returned for them.
func (g *Graph) canonical() *canon.Form {
	if g.t == nil {
		return nil
	}
	g.canonOnce.Do(func() { g.canonForm = canon.Canonicalize(g.t) })
	return g.canonForm
}

// CanonicalHash returns the 128-bit canonical-form hash of a cograph:
// every cograph representing the same graph up to vertex relabelling
// (any child order, any vertex numbering, any names) hashes equal, and
// distinct graphs hash distinct up to astronomically unlikely 128-bit
// collisions. ok is false for non-cograph graphs (FromEdgesAny raw
// adjacency), which have no canonical form.
func (g *Graph) CanonicalHash() (hi, lo uint64, ok bool) {
	f := g.canonical()
	if f == nil {
		return 0, 0, false
	}
	return f.Hash.Hi, f.Hash.Lo, true
}

// WithCache equips the pool with a result cache of capBytes capacity:
// a size-aware LRU of finished covers keyed on canonical graph
// identity, shared across the shards, with singleflight coalescing of
// concurrent requests for the same graph. Non-positive capacities
// leave the pool uncached (the default — benchmarks and the package-
// level Graph methods measure the pipeline, not the cache).
func WithCache(capBytes int64) PoolOption {
	return func(c *poolConfig) { c.cacheBytes = capBytes }
}

// CacheStats reports the pool cache's counters: requests served
// without a solve (Hits), solves that populated the cache (Misses),
// concurrent duplicates that waited on an in-flight solve instead of
// re-solving (Coalesced), and entries dropped for capacity
// (Evictions). Zero-valued on uncached pools.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity"`
}

// cacheKey decides whether this call may be served through the cache
// and, when it may, returns its key and the graph's canonical form.
// Ineligible: uncached pools, raw graphs, pinned non-cograph backends,
// and calls with an active fault injector (explicit or ambient via
// PATHCOVER_FAULT) — fault runs must reach the pipeline every time.
// WithWorkers is deliberately absent from the key: the worker count
// changes execution, never covers or counters.
func (p *Pool) cacheKey(g *Graph, opts []Option) (covercache.Key, *canon.Form, bool) {
	if p.cache == nil || g.t == nil {
		return covercache.Key{}, nil, false
	}
	cfg := p.baseCfg
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.backend != BackendAuto && cfg.backend != BackendCograph {
		return covercache.Key{}, nil, false
	}
	if cfg.faultSet {
		if cfg.fault != nil {
			return covercache.Key{}, nil, false
		}
	} else if envFaultInjector() != nil {
		return covercache.Key{}, nil, false
	}
	form := g.canonical()
	return covercache.Key{
		Hash:  form.Hash,
		N:     g.N(),
		Seed:  cfg.seed,
		Procs: cfg.procs,
		Algo:  int8(cfg.algorithm),
	}, form, true
}

// entryFromCover converts a finished cover (in the solved graph's own
// numbering) into a cache entry in canonical numbering. Host-side and
// uncharged, like every output conversion.
func entryFromCover(cov *Cover, form *canon.Form) *covercache.Entry {
	total := 0
	for _, p := range cov.Paths {
		total += len(p)
	}
	verts := make([]int32, 0, total)
	ends := make([]int32, len(cov.Paths))
	for i, p := range cov.Paths {
		for _, v := range p {
			verts = append(verts, form.ToCanon[v])
		}
		ends[i] = int32(len(verts))
	}
	return &covercache.Entry{
		Verts:      verts,
		Ends:       ends,
		NumPaths:   cov.NumPaths,
		Exact:      cov.Exact,
		Backend:    int8(cov.Backend),
		LowerBound: cov.LowerBound,
		Gap:        cov.Gap,
		Procs:      cov.Stats.Procs,
		SimTime:    cov.Stats.Time,
		SimWork:    cov.Stats.Work,
	}
}

// coverFromEntry materialises a fresh Cover in the requester's own
// numbering from a cached canonical entry. The entry stays untouched
// (it is shared); the returned cover is the caller's to keep. Cache
// hits are uncharged: Stats stays zero.
func coverFromEntry(e *covercache.Entry, form *canon.Form) *Cover {
	backing := make([]int, len(e.Verts))
	paths := make([][]int, len(e.Ends))
	start := int32(0)
	for i, end := range e.Ends {
		for j := start; j < end; j++ {
			backing[j] = int(form.FromCanon[e.Verts[j]])
		}
		paths[i] = backing[start:end:end]
		start = end
	}
	return &Cover{
		Paths:      paths,
		NumPaths:   e.NumPaths,
		Exact:      e.Exact,
		Backend:    Backend(e.Backend),
		LowerBound: e.LowerBound,
		Gap:        e.Gap,
		Shard:      -1, // served from cache, no shard occupied
	}
}
