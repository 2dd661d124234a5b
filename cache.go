package surf

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// defaultCacheSize is the result cache capacity an engine gets when
// WithResultCache is not given. Results are small (a handful of
// regions with 2d coordinates each), so the default is sized for "the
// same dashboard asks the same few queries over and over" rather than
// for memory pressure.
const defaultCacheSize = 64

// resultCache is a snapshot-keyed LRU over resolved queries with a
// frequency-aware admission test. Keys embed the generation of the
// snapshot the query ran against, so a cached entry can never be
// served across a model or data swap. The cache also remembers the
// live generation: a snapshot swap drops every entry and advances it
// (see reset), and put refuses keys of any other generation, so a run
// that finishes on a snapshot swapped out mid-run cannot leave behind
// an entry nobody will ever be served.
//
// Admission follows TinyLFU (Einziger, Friedman & Manes, ACM TOS
// 2017): get counts every lookup of a key, hit or miss, and a put into
// a full cache admits the new key only if it has been looked up at
// least as often as the least recently used entry it would evict.
// Ties admit, so a stream of one-off keys is cached exactly as plain
// LRU would cache it, while a one-off key cannot push out a popular
// answer that merely went unasked for a while. Every admissionWindow ×
// cap lookups all counts halve (see count), so popularity follows the
// recent past and the slot map stays bounded.
//
// Entries store deep copies and lookups return deep copies: callers
// are free to mutate the Result they get back (batch and cached calls
// behave identically), and a later mutation can never poison the
// cache.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	gen   uint64     // the live snapshot generation; put accepts only its keys
	order *list.List // front = most recently used; values are *slot
	// slots holds every key that is resident or was looked up since
	// the counts last halved, so a lookup hashes its key once;
	// lookups counts every lookup since the last halving.
	slots   map[resultKey]*slot
	lookups int
	// hits, misses and rejected are atomics, not mutex-guarded fields:
	// a scrape of the counters must never contend with the query hot
	// path.
	hits     atomic.Uint64
	misses   atomic.Uint64
	rejected atomic.Uint64
}

// admissionWindow is the number of lookups, per entry of capacity,
// between two halvings of the lookup counts. A longer window
// remembers popularity longer but reacts more slowly when the popular
// queries change. Replaying 3,500 lookups drawn Zipf(s = 1.3) from 384
// queries against a 64-entry cache (5 seeds), windows of 16×, 32× and
// 64× cut plain LRU's misses by 13%, 16% and 17%.
const admissionWindow = 32

// resultKey identifies one cached answer: the snapshot generation and
// the resolved Query or TopKQuery (see Query.resolved) with Workers
// zeroed — parallel evaluation is bit-identical to sequential. Two
// queries share a key exactly when they are guaranteed to produce the
// same Result against the same snapshot, and a new query field joins
// the key without anyone having to remember it. Struct equality also
// merges -0 with 0, which compare equal everywhere a query uses them.
type resultKey struct {
	gen   uint64
	query any
}

// cacheKey is the one place a result-cache key is built: q is a
// resolved query run against the snapshot of generation gen.
func cacheKey[Q Query | TopKQuery](gen uint64, q Q) resultKey {
	switch k := any(&q).(type) {
	case *Query:
		k.Workers = 0
	case *TopKQuery:
		k.Workers = 0
	}
	return resultKey{gen: gen, query: q}
}

// slot is one key's state: its lookup count since the counts last
// halved and, while the key is resident, its answer and its element
// in the LRU order.
type slot struct {
	key resultKey
	n   int
	res *Result
	el  *list.Element // nil unless resident
}

// newResultCache returns a cache holding up to capacity results;
// capacity <= 0 disables caching entirely.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return &resultCache{}
	}
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		slots: make(map[resultKey]*slot, capacity),
	}
}

// enabled reports whether the cache can ever hold an entry.
func (c *resultCache) enabled() bool { return c != nil && c.cap > 0 }

// get returns a copy of the cached result for key and marks it most
// recently used. Hit or miss, the lookup counts towards key's
// admission (see put).
func (c *resultCache) get(key resultKey) (*Result, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.count(key)
	if s.el == nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.order.MoveToFront(s.el)
	return copyResult(s.res), true
}

// count records one lookup of key and returns its slot. Every
// window() lookups it first halves every count and forgets the
// non-resident keys that reach 0, so the halving costs amortized O(1)
// per lookup. It also bounds the keys with a nonzero count at
// 2·window(): a halving leaves at most half the counted lookups
// behind, so the counts it keeps never sum to more than window(), each
// key it keeps holds at least 1 of them, and at most window() more
// keys are looked up before the next halving. The map holds at most
// cap resident keys besides.
func (c *resultCache) count(key resultKey) *slot {
	if c.lookups++; c.lookups > c.window() {
		c.lookups = 1
		for k, s := range c.slots {
			if s.n /= 2; s.n == 0 && s.el == nil {
				delete(c.slots, k)
			}
		}
	}
	s := c.slots[key]
	if s == nil {
		s = &slot{key: key}
		c.slots[key] = s
	}
	s.n++
	return s
}

// window is the number of lookups between two halvings of the counts.
func (c *resultCache) window() int { return admissionWindow * c.cap }

// put stores a copy of res under key. When the cache is full, key
// must have been looked up at least as often as the least recently
// used entry; then that entry is evicted, else key is turned away and
// counted in Rejected. A key of any generation but the live one is
// dropped: its snapshot is gone, so the entry could never be served.
func (c *resultCache) put(key resultKey, res *Result) {
	if !c.enabled() || res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if key.gen != c.gen {
		return
	}
	s := c.slots[key]
	if s == nil {
		s = &slot{key: key} // never looked up: a count of 0
	}
	if s.el != nil {
		s.res = copyResult(res)
		c.order.MoveToFront(s.el)
		return
	}
	if c.order.Len() == c.cap {
		victim := c.order.Back().Value.(*slot)
		if s.n < victim.n {
			c.rejected.Add(1)
			return
		}
		c.order.Remove(victim.el)
		victim.el, victim.res = nil, nil
		if victim.n == 0 {
			delete(c.slots, victim.key)
		}
	}
	s.res = copyResult(res)
	s.el = c.order.PushFront(s)
	c.slots[key] = s
}

// reset drops every entry and every lookup count and makes gen the
// live generation (the engine calls it on snapshot swaps).
func (c *resultCache) reset(gen uint64) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen = gen
	c.order.Init()
	clear(c.slots)
	c.lookups = 0
}

// len reports the number of live entries (for tests).
func (c *resultCache) len() int {
	if !c.enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a point-in-time snapshot of a result cache's
// effectiveness, as reported by Engine.CacheStats. Hits, Misses and
// Rejected accumulate over the engine's lifetime (they survive the
// clears a train/load triggers — a hit ratio that resets on every hot
// swap would be useless for monitoring); Entries and Capacity
// describe the cache's current occupancy.
//
// Rejected counts the completed runs whose answer the full cache
// turned away because the query had been looked up less often than
// the entry it would have evicted. Answers of a swapped-out snapshot,
// which are dropped as well, are not counted.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Rejected uint64 `json:"rejected"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// stats snapshots the cache counters. The counters are read
// without the mutex — each is individually consistent, which is all a
// metrics scrape needs.
func (c *resultCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Rejected: c.rejected.Load(),
		Entries:  c.len(),
		Capacity: c.cap,
	}
}

// copyResult deep-copies a result so cache entries and caller-visible
// results never share backing arrays.
func copyResult(r *Result) *Result {
	out := *r
	out.Regions = make([]Region, len(r.Regions))
	for i, reg := range r.Regions {
		reg.Min = append([]float64(nil), reg.Min...)
		reg.Max = append([]float64(nil), reg.Max...)
		out.Regions[i] = reg
	}
	return &out
}
