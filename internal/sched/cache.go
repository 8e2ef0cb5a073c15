package sched

import (
	"container/list"

	"airshed/internal/core"
)

// resultCache is an LRU cache of completed run results keyed by the
// scenario content hash, capped both by entry count and by the
// approximate in-memory size of the stored results. Results are treated
// as immutable once cached: every hit returns the same *core.Result, so
// callers must not modify it (the determinism regression test pins the
// assumption that two independent runs of a scenario produce identical
// results, which is what makes sharing safe).
//
// Every entry is also indexed by its physics key — the end-of-run prefix
// hash P(end) of its spec — so a physics replay can take trace, peaks and
// Final, and a prediction its trace, from a cached result of the same
// physics (see lookup).
// An index on the same entries, not a second cache: at most one element
// per key (the newest put), inside the one bound, dropped with its entry.
//
// Not safe for concurrent use; the scheduler serialises access under its
// own mutex.
type resultCache struct {
	maxEntries int
	maxBytes   int64

	bytes   int64
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	physics map[string]*list.Element // by physics key; see above

	hits, misses, evictions uint64
}

type cacheEntry struct {
	hash    string
	physics string
	res     *core.Result
	bytes   int64
}

// newResultCache builds a cache; maxEntries <= 0 disables caching
// entirely (every lookup misses, nothing is stored).
func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
		physics:    make(map[string]*list.Element),
	}
}

// get returns the cached result for hash, refreshing its recency.
func (c *resultCache) get(hash string) (*core.Result, bool) {
	el, ok := c.entries[hash]
	if !ok {
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).res, true
}

// getPhysics returns some cached result of the given physics, or nil: a
// donor lookup, not a submission outcome, so recency and counters stay.
func (c *resultCache) getPhysics(physics string) *core.Result {
	if el, ok := c.physics[physics]; ok {
		return el.Value.(*cacheEntry).res
	}
	return nil
}

// put stores a result under both keys and evicts least-recently-used
// entries until both caps hold again. A result larger than maxBytes on its
// own is still stored (the byte cap is approximate, and serving one huge
// scenario beats serving none) but evicts everything else.
func (c *resultCache) put(hash, physics string, res *core.Result) {
	if c.maxEntries <= 0 {
		return
	}
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		return
	}
	e := &cacheEntry{hash: hash, physics: physics, res: res, bytes: approxResultBytes(res)}
	el := c.order.PushFront(e)
	c.entries[hash], c.physics[physics] = el, el
	c.bytes += e.bytes
	for c.order.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.order.Len() > 1) {
		c.evictOldest()
	}
}

// evictOldest removes the least-recently-used entry.
func (c *resultCache) evictOldest() {
	el := c.order.Back()
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries, e.hash)
	if c.physics[e.physics] == el {
		delete(c.physics, e.physics)
	}
	c.bytes -= e.bytes
	c.evictions++
}

// len returns the number of cached entries.
func (c *resultCache) len() int { return c.order.Len() }

// approxResultBytes estimates a result's in-memory footprint: the large
// float slices (final concentrations, per-step trace records) dominate,
// so maps and scalars are charged with a small flat overhead.
func approxResultBytes(res *core.Result) int64 {
	const w = 8
	b := int64(256) // scalars, map headers
	b += int64(len(res.Final)) * w
	b += int64(len(res.HourlyPeakO3)) * w
	b += int64(len(res.NodeUtilization)) * w
	b += int64(len(res.CommSeconds)+len(res.RedistCounts)) * 48
	if res.Trace != nil {
		for i := range res.Trace.Hours {
			h := &res.Trace.Hours[i]
			b += 64
			for j := range h.Steps {
				st := &h.Steps[j]
				b += int64(len(st.LayerFlops)+len(st.CellFlops))*w + 32
			}
		}
	}
	return b
}
