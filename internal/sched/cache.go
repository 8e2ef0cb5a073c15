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
// physics (see lookup). Results made that way share those slices with
// their donor, so the byte cap charges them once per physics, not once
// per entry: 120 pricings of one LA run hold one megabyte of Final.
// An index on the same entries, not a second cache: one donor per key
// (the newest put), inside the one bound, dropped with its entry.
//
// Not safe for concurrent use; the scheduler serialises access under its
// own mutex.
type resultCache struct {
	maxEntries int
	maxBytes   int64

	bytes   int64
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	physics map[string]*physicsShare // by physics key; see above

	evictions uint64
}

type cacheEntry struct {
	hash    string
	physics string
	res     *core.Result
	bytes   int64 // charged to this entry alone; see physicsShare
}

// physicsShare is what the entries of one physics have in common: the
// newest of them (the donor; nil once evicted, until the next put), their
// number, and the Final array whose bytes, with the trace's, are charged
// once for all and released with the last. An entry with a copy of its own
// (a whole frame from the store, a concurrent cold run) pays in full.
type physicsShare struct {
	donor   *list.Element
	entries int
	final   []float64
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
		physics:    make(map[string]*physicsShare),
	}
}

// get returns the cached result for hash, refreshing its recency.
func (c *resultCache) get(hash string) (*core.Result, bool) {
	el, ok := c.entries[hash]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// getPhysics returns some cached result of the given physics, or nil: a
// donor lookup, not a submission outcome, so recency stays.
func (c *resultCache) getPhysics(physics string) *core.Result {
	if sh := c.physics[physics]; sh != nil && sh.donor != nil {
		return sh.donor.Value.(*cacheEntry).res
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
	own, shared := approxResultBytes(res)
	sh := c.physics[physics]
	switch {
	case sh == nil:
		sh = &physicsShare{final: res.Final, bytes: shared}
		c.physics[physics] = sh
		c.bytes += shared
	case len(res.Final) == 0 || len(sh.final) == 0 || &res.Final[0] != &sh.final[0]:
		own += shared
	}
	e := &cacheEntry{hash: hash, physics: physics, res: res, bytes: own}
	el := c.order.PushFront(e)
	c.entries[hash] = el
	sh.donor, sh.entries = el, sh.entries+1
	c.bytes += own
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
	sh := c.physics[e.physics]
	if sh.donor == el {
		sh.donor = nil
	}
	if sh.entries--; sh.entries == 0 {
		delete(c.physics, e.physics)
		c.bytes -= sh.bytes
	}
	c.bytes -= e.bytes
	c.evictions++
}

// len returns the number of cached entries.
func (c *resultCache) len() int { return c.order.Len() }

// approxResultBytes estimates a result's in-memory footprint: shared, the
// large float slices that dominate (final concentrations, per-step trace
// records) and that a result assembled from held physics shares with its
// donor, and own, the rest, with maps and scalars at a small flat overhead.
func approxResultBytes(res *core.Result) (own, shared int64) {
	const w = 8
	own = 256 // scalars, map headers
	own += int64(len(res.HourlyPeakO3)) * w
	own += int64(len(res.NodeUtilization)) * w
	own += int64(len(res.CommSeconds)+len(res.RedistCounts)) * 48
	shared = int64(len(res.Final)) * w
	if res.Trace != nil {
		for i := range res.Trace.Hours {
			h := &res.Trace.Hours[i]
			own += 64
			for j := range h.Steps {
				st := &h.Steps[j]
				shared += int64(len(st.LayerFlops)+len(st.CellFlops))*w + 32
			}
		}
	}
	return own, shared
}
