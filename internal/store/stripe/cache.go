package stripe

import (
	"container/list"
	"sync"
	"sync/atomic"

	topklist "topk/internal/list"
)

// blockKind distinguishes the two cached block families of one list.
type blockKind uint8

const (
	kindEntries blockKind = iota
	kindPositions
)

// ckey addresses one cached block: an entry stripe or a position page of
// one list of one DB (each DB owns its cache, so the DB is implicit).
type ckey struct {
	kind blockKind
	list int32
	idx  int32
}

// block is one decoded entry stripe as the cache holds it and a list's
// hint serves it: idx is the stripe index, so a read can tell whether the
// hinted block covers its position.
type block struct {
	idx  int
	ents []topklist.Entry
}

// centry is one resident block: the decoded payload, its accounted size
// in bytes, and — for entry stripes — the hint of the list it belongs
// to, which eviction clears when it still points at this block.
type centry struct {
	key  ckey
	val  any
	size int64
	hint *atomic.Pointer[block]
	elem *list.Element
}

// cache is the LRU block cache of one open DB: decoded payloads under a
// byte budget. The budget is a hard ceiling on the accounted resident
// bytes — insertion evicts first, and a block larger than the whole
// budget is returned to the caller without being admitted — which is
// what lets a deployment cap an owner's memory regardless of list size.
//
// Every hint store and clear happens under the cache lock, together with
// the admission or eviction it follows, so a list hint only ever points
// at a resident block: hints keep nothing alive beyond the budget.
//
// CacheStats (and the process-wide obs gauge) report the accounted
// decoded payload bytes; the map and LRU bookkeeping add a small
// per-block overhead on top.
type cache struct {
	mu          sync.Mutex
	budget      int64
	resident    int64
	maxResident int64 // high-water mark of resident
	entries     map[ckey]*centry
	lru         *list.List // front = most recently used; values are *centry
	hits        int64
	misses      int64
	evictions   int64
}

func newCache(budget int64) *cache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &cache{budget: budget, entries: make(map[ckey]*centry), lru: list.New()}
}

// CacheStats is a point-in-time snapshot of one DB's stripe cache.
type CacheStats struct {
	Hits      int64 // block reads served from the cache, a list hint's included
	Misses    int64 // block reads that went to disk
	Evictions int64 // blocks dropped to respect the budget
	// Resident is the accounted decoded bytes currently cached;
	// MaxResident is its high-water mark over the DB's lifetime. Both
	// are always <= Budget.
	Resident    int64
	MaxResident int64
	Budget      int64
}

// get returns the cached block for k, loading it via load on a miss.
// load runs outside the cache lock, so concurrent misses on distinct
// blocks overlap their disk reads; concurrent misses on the same block
// may both load, and the loser adopts the winner's copy. hint is the
// list hint of an entry stripe (nil for position pages): whenever the
// returned block is resident, it is stored there. A block served
// uncached is never hinted.
func (c *cache) get(k ckey, hint *atomic.Pointer[block], load func() (val any, size int64, err error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits++
		e.setHint()
		c.mu.Unlock()
		mCacheHits.Inc()
		return e.val, nil
	}
	c.mu.Unlock()

	val, size, err := load()
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	mCacheMisses.Inc()
	if e, ok := c.entries[k]; ok { // lost a load race; adopt the resident copy
		c.lru.MoveToFront(e.elem)
		e.setHint()
		return e.val, nil
	}
	if c.admits(size) {
		for c.resident+size > c.budget {
			c.evictOldestLocked()
		}
		e := &centry{key: k, val: val, size: size, hint: hint}
		e.setHint()
		e.elem = c.lru.PushFront(e)
		c.entries[k] = e
		c.resident += size
		if c.resident > c.maxResident {
			c.maxResident = c.resident
		}
		mCacheResident.Add(float64(size))
	}
	return val, nil
}

// peek serves k as a hit when it is resident, hinting it like get, and
// otherwise reports whether a block of the given accounted size would be
// admitted now without an eviction. It loads nothing and counts no miss.
func (c *cache) peek(k ckey, hint *atomic.Pointer[block], size int64) (val any, fits bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits++
		e.setHint()
		mCacheHits.Inc()
		return e.val, true
	}
	return nil, c.resident+size <= c.budget
}

// admits reports whether a block of the given accounted size is
// admitted on a miss; a larger one is served uncached, so every read of
// it is a miss. The budget is fixed at construction, so no lock is
// needed.
func (c *cache) admits(size int64) bool { return size <= c.budget }

// setHint points the entry's list hint at it; cache lock held.
func (e *centry) setHint() {
	if e.hint != nil {
		e.hint.Store(e.val.(*block))
	}
}

// clearHint unhints the entry if its list hint still points at it; cache
// lock held.
func (e *centry) clearHint() {
	if e.hint != nil {
		e.hint.CompareAndSwap(e.val.(*block), nil)
	}
}

// addHits folds reads a list served from its hint into the tallies.
func (c *cache) addHits(n int64) {
	c.mu.Lock()
	c.hits += n
	c.mu.Unlock()
	mCacheHits.Add(n)
}

// addMisses counts n further reads of a block served uncached.
func (c *cache) addMisses(n int64) {
	c.mu.Lock()
	c.misses += n
	c.mu.Unlock()
	mCacheMisses.Add(n)
}

// evictOldestLocked drops the least recently used block. Called with the
// lock held and at least one resident block.
func (c *cache) evictOldestLocked() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	e := back.Value.(*centry)
	e.clearHint()
	c.lru.Remove(back)
	delete(c.entries, e.key)
	c.resident -= e.size
	c.evictions++
	mCacheEvictions.Inc()
	mCacheResident.Add(float64(-e.size))
}

// stats snapshots the tallies.
func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Resident: c.resident, MaxResident: c.maxResident, Budget: c.budget,
	}
}

// drop releases every resident block (DB.Close), clearing the hints that
// point at them and returning the obs gauge's share.
func (c *cache) drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		e.clearHint()
	}
	freed := c.resident
	c.entries = make(map[ckey]*centry)
	c.lru.Init()
	c.resident = 0
	mCacheResident.Add(float64(-freed))
}
