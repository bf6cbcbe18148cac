package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/resource"
	"repro/internal/verify"
)

// resultCache is the content-addressed in-memory result store: key =
// hash of (canonical model identity, engine, options, budget), value =
// the finished result plus the run's engine-event lines, so a repeated
// submission of the same work returns instantly — result and replayable
// event stream included — without touching a BDD manager.
//
// Only deterministic outcomes are cached: verified and violated
// verdicts always; exhaustion only when caused by the node limit or the
// iteration cap, which are functions of the keyed budget. Deadline and
// cancellation exhaustion depend on wall clock and client behavior and
// are never cached.
type resultCache struct {
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key    string
	result *ResultWire
	events []json.RawMessage
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// cacheKey derives the content address of a normalized submission. The
// model identity is canonical (lang.Canon output), the engine name is
// the registry's canonical spelling, and the options and budget are the
// *resolved* forms the run will actually execute under — the parsed
// termination mode, the default-filled and server-clamped budget — not
// the raw wire fields. That is what makes the documented contract hold:
// two submissions collide exactly when the service would do
// byte-identical work, so `termination:""` and `"exact"` share an
// entry, as do `node_limit:-1` and an explicit ask for the daemon's
// clamp maximum.
func cacheKey(modelIdentity, engine string, opt verify.Options, budget resource.Budget) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00term=%d grow=%g trace=%t gc=%d\x00nodes=%d timeout=%d iter=%d",
		modelIdentity, engine,
		opt.Termination, opt.Core.GrowThreshold, opt.WantTrace, opt.GCEvery,
		budget.NodeLimit, int64(budget.Timeout), budget.MaxIterations)
	return hex.EncodeToString(h.Sum(nil))
}

// cacheable reports whether a finished result may be stored.
func cacheable(rw *ResultWire) bool {
	switch rw.Outcome {
	case "verified", "violated":
		return true
	case "exhausted":
		return rw.Cause == "node-limit" || rw.Cause == "iteration-cap"
	}
	return false
}

// get returns the entry for key, refreshing its recency. Callers hold
// the server mutex.
func (c *resultCache) get(key string) (*cacheEntry, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put stores an entry, evicting the least recently used past capacity;
// it returns the number of entries evicted. Callers hold the server
// mutex. A stored entry is never modified: a caller of get reads it
// after the mutex is released, so a replacement is a new entry.
func (c *resultCache) put(key string, result *ResultWire, events []json.RawMessage) int {
	if c.cap <= 0 {
		return 0
	}
	if el, ok := c.entries[key]; ok {
		el.Value = &cacheEntry{key: key, result: result, events: events}
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, result: result, events: events})
	evicted := 0
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// len reports the number of cached results. Callers hold the server
// mutex.
func (c *resultCache) len() int { return c.order.Len() }

// --- the persistent tier -----------------------------------------------

// storedResult is the persistent store's payload: the finished result
// plus the run's engine-event lines, so a store hit replays the exact
// NDJSON stream a live run would produce.
type storedResult struct {
	Result *ResultWire       `json:"result"`
	Events []json.RawMessage `json:"events,omitempty"`
}

// lookupResult consults the two cache tiers in order — the in-memory
// LRU, then the persistent store — and returns the entry or nil. A
// store hit is promoted into the memory tier. Every call is one
// content-addressed lookup in the metrics' accounting:
//
//	cache_lookups == cache_memory_hits + cache_store_hits + cache_misses
//
// Store I/O happens outside the server mutex.
func (s *Server) lookupResult(key string) *cacheEntry {
	s.met.cacheLookups.Add(1)
	s.mu.Lock()
	entry, hit := s.cache.get(key)
	s.mu.Unlock()
	if hit {
		s.met.cacheMemHits.Add(1)
		s.met.cacheHits.Add(1)
		return entry
	}
	if s.store != nil {
		if payload, ok := s.store.Get(key); ok {
			var sr storedResult
			if err := json.Unmarshal(payload, &sr); err == nil && sr.Result != nil {
				s.met.cacheStoreHits.Add(1)
				s.met.cacheHits.Add(1)
				s.mu.Lock()
				evicted := s.cache.put(key, sr.Result, sr.Events)
				s.mu.Unlock()
				s.met.cacheEvictions.Add(int64(evicted))
				return &cacheEntry{key: key, result: sr.Result, events: sr.Events}
			}
		}
	}
	s.met.cacheMisses.Add(1)
	return nil
}

// storeResult writes a finished result through both tiers: the memory
// LRU immediately, and — when a store is configured — the persistent
// store, so the verdict survives a daemon restart. A store write
// failure is not a job failure; the memory tier already has the entry.
func (s *Server) storeResult(key string, rw *ResultWire, events []json.RawMessage) {
	s.mu.Lock()
	evicted := s.cache.put(key, rw, events)
	s.mu.Unlock()
	s.met.cacheEvictions.Add(int64(evicted))
	if s.store != nil {
		if payload, err := json.Marshal(storedResult{Result: rw, Events: events}); err == nil {
			s.store.Put(key, payload)
		}
	}
}
