// Package covercache is a bounded, size-aware LRU of finished path
// covers keyed on canonical graph identity, with singleflight
// coalescing: when several requests for the same canonical graph
// arrive concurrently, one solves and the rest wait for its result
// instead of re-solving.
//
// Entries store covers in *canonical* vertex numbering; callers remap
// through their graph's canonical permutation on the way in and out.
// The cache never touches the solve pipeline — fills run whatever
// closure the caller supplies — so simulated-cost invariants of the
// miss path are the caller's to keep (and they do: hits and the
// remapping around them are host-side and uncharged).
package covercache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"pathcover/internal/canon"
)

// errFillPanic marks a flight whose leader panicked; waiters retry.
var errFillPanic = errors.New("covercache: fill panicked")

// Key identifies a cache entry: the canonical graph plus every solver
// knob that changes the answer or its reported statistics. Requests
// differing only in presentation (vertex numbering, child order,
// wide/narrow index width) share an entry.
type Key struct {
	Hash  canon.Hash
	N     int
	Seed  uint64
	Procs int
	Algo  int8
}

// Entry is a finished cover in canonical vertex numbering. Verts holds
// the concatenated paths back-to-back; Ends[i] is the end offset of
// path i (path i is Verts[Ends[i-1]:Ends[i]]). The int32 element type
// is safe: vertex ids are bounded by pathcover.MaxVertices, the
// pipeline's int32 bound of about 214M.
type Entry struct {
	Verts      []int32
	Ends       []int32
	NumPaths   int
	Exact      bool
	Backend    int8
	LowerBound int
	Gap        int
	Procs      int
	SimTime    int64
	SimWork    int64
}

// size is the entry's accounting charge in bytes (slices + struct).
func (e *Entry) size() int64 {
	return int64(len(e.Verts))*4 + int64(len(e.Ends))*4 + 96
}

// Outcome says how Do obtained its result.
type Outcome int8

const (
	// Miss: this call ran the fill itself and populated the cache.
	Miss Outcome = iota
	// Hit: the entry was already resident.
	Hit
	// Coalesced: another in-flight call for the same key ran the fill;
	// this call waited and shares its result.
	Coalesced
)

// Stats is a snapshot of the cache's counters and occupancy.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity"`
}

// flight is one in-progress fill; waiters block on done.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// Cache is a byte-bounded LRU with per-key singleflight. The zero
// value is not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*list.Element // value: *lruItem
	lru     *list.List            // front = most recent
	flights map[Key]*flight
	bytes   int64
	cap     int64

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

type lruItem struct {
	key   Key
	entry *Entry
}

// New returns a cache bounded to capBytes of entry payload. capBytes
// must be positive.
func New(capBytes int64) *Cache {
	if capBytes <= 0 {
		panic("covercache: non-positive capacity")
	}
	return &Cache{
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
		flights: make(map[Key]*flight),
		cap:     capBytes,
	}
}

// Get returns the resident entry for key, or nil. A hit refreshes
// recency and counts toward Stats.Hits; a miss here does NOT count
// (Do owns the miss counter — Get is for probes).
func (c *Cache) Get(key Key) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*lruItem).entry
	}
	return nil
}

// Do returns the entry for key, filling it with fill on a miss.
// Concurrent Do calls for the same key coalesce: exactly one runs
// fill, the others wait. Entries returned by Do are shared and must
// be treated as immutable.
//
// If the leader's fill fails, its error goes to the leader only;
// each waiter retries (one becomes the next leader). A waiter whose
// ctx ends stops waiting and returns ctx.Err() — the fill itself is
// not cancelled, and its result still populates the cache for others.
func (c *Cache) Do(ctx context.Context, key Key, fill func() (*Entry, error)) (*Entry, Outcome, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			return el.Value.(*lruItem).entry, Hit, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
			if f.err != nil {
				// Leader failed; loop and race to become the new leader.
				continue
			}
			c.coalesced.Add(1)
			return f.entry, Coalesced, nil
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		entry, err := c.runFill(key, f, fill)
		if err != nil {
			return nil, Miss, err
		}
		c.misses.Add(1)
		return entry, Miss, nil
	}
}

// TryDo is Do without the coalescing wait, for callers that already
// hold an execution resource a flight leader may be queued on (a Pool
// batch item runs fills with its shard slot held; blocking on a flight
// whose leader wants that very slot would deadlock). A resident entry
// is a Hit; otherwise fill runs immediately. When no flight for key is
// in progress this call registers one, so plain Do callers still
// coalesce onto it; when one already is, the fill runs redundantly and
// the racing results unify at insert.
func (c *Cache) TryDo(key Key, fill func() (*Entry, error)) (*Entry, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*lruItem).entry, Hit, nil
	}
	var f *flight
	if _, inFlight := c.flights[key]; !inFlight {
		f = &flight{done: make(chan struct{})}
		c.flights[key] = f
	}
	c.mu.Unlock()

	var entry *Entry
	var err error
	if f != nil {
		entry, err = c.runFill(key, f, fill)
	} else {
		entry, err = fill()
		if err == nil {
			c.insert(key, entry)
		}
	}
	if err != nil {
		return nil, Miss, err
	}
	c.misses.Add(1)
	return entry, Miss, nil
}

// runFill executes the leader's fill with panic-safe flight cleanup:
// whatever happens, the flight is deregistered and waiters released.
func (c *Cache) runFill(key Key, f *flight, fill func() (*Entry, error)) (entry *Entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			f.err = errFillPanic // waiters just retry; the panic is the leader's
			c.finishFlight(key, f)
			panic(r)
		}
		f.entry, f.err = entry, err
		if err == nil {
			c.insert(key, entry)
		}
		c.finishFlight(key, f)
	}()
	entry, err = fill()
	return entry, err
}

func (c *Cache) finishFlight(key Key, f *flight) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
}

// insert adds entry under key and evicts from the LRU tail until the
// byte budget holds. An entry larger than the whole budget is still
// admitted alone (the cache then holds just it until the next insert).
func (c *Cache) insert(key Key, entry *Entry) {
	sz := entry.size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A concurrent insert beat us (possible across leader retries);
		// keep the resident one.
		c.lru.MoveToFront(el)
		return
	}
	c.bytes += sz
	el := c.lru.PushFront(&lruItem{key: key, entry: entry})
	c.entries[key] = el
	for c.bytes > c.cap && c.lru.Len() > 1 {
		tail := c.lru.Back()
		it := tail.Value.(*lruItem)
		c.lru.Remove(tail)
		delete(c.entries, it.key)
		c.bytes -= it.entry.size()
		c.evictions.Add(1)
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
		Capacity:  c.cap,
	}
}
