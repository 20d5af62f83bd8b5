package core

import (
	"container/list"
	"sync"

	"pdl/internal/flash"
)

// diffCache is the differential-page cache: a bounded LRU map from a
// differential page's PPN to a copy of the page's used record prefix, in
// the wire form it has in flash. PDL_Reading's structural cost is that a
// cold read of a diff-bearing page needs two serial flash reads (base
// page, then differential page) just to pick one record; differential
// pages are immutable once programmed and typically carry the
// differentials of many hot pids, so keeping the page image in DRAM turns
// every subsequent hot read into one flash read plus a scan of the
// record headers (diff.FindIn) — the same merge the uncached path runs on
// the freshly read page, so a hit, a miss and a disabled cache share one
// code path and no record is ever decoded to be read. An entry costs at
// most one page of memory.
//
// # Coherence
//
// A cached entry stays valid for exactly as long as its PPN holds the
// differential page it was copied from: flash pages only change content
// through erase + reprogram. The store therefore invalidates a PPN at
// every point where a differential page dies or is (re)born — when its
// valid-differential count reaches zero (releaseDiffPage), when garbage
// collection compacts it away (dropDiffPage in relocate), and whenever a
// new differential page is programmed over a PPN (shard spills, batched
// spills, GC compaction targets), which closes the reuse window where an
// erased PPN comes back as a fresh differential page.
//
// Inserts come from the lock-free read path, which may have been preempted
// between reading flash and inserting; an insert therefore carries the
// cache generation observed before its flash read and is dropped if the
// insert's own PPN was invalidated in between (the page read might belong
// to the PPN's previous life). The fence is per PPN — a recent-invalidation
// window maps each PPN to the generation of its last invalidation, so
// spills and GC compactions of unrelated pages never suppress an insert;
// only a read older than the whole window (invalWindow invalidations have
// passed since its snapshot) is dropped conservatively. Dropped inserts
// cost only a future miss, never correctness.
//
// The cache holds only DRAM-derived state: it is never persisted, so a
// restart (and hence recovery) starts from an empty cache and recovered
// stores are byte-identical whether or not the cache was enabled before
// the crash.
//
// All methods are safe on a nil receiver (cache disabled).
type diffCache struct {
	mu      sync.Mutex
	cap     int
	entries map[flash.PPN]*list.Element
	lru     *list.List // front = most recently used
	// gen counts invalidations, and inval maps each PPN invalidated
	// within the last invalWindow generations to the generation of its
	// most recent invalidation; together they fence inserts (see put).
	// invalFIFO holds the same events in generation order so expiry pops
	// from the head in O(1) amortized instead of sweeping the map.
	gen       uint64
	inval     map[flash.PPN]uint64
	invalFIFO []invalEvent
}

// invalEvent is one invalidation in the retained history window.
type invalEvent struct {
	ppn flash.PPN
	gen uint64
}

// invalWindow is how many generations of per-PPN invalidation history the
// cache keeps; it bounds the inval map. An insert whose snapshot is older
// than the window (≥ invalWindow invalidations elapsed mid-flight, i.e. a
// reader preempted across an eternity of GC work) is dropped without
// consulting it.
const invalWindow = 1024

// diffCacheEntry is one cached differential page. img is shared with
// readers and is never written after the insert (diff.FindIn and
// diff.ApplyRecord only read it); a replaced or evicted image is dropped,
// not recycled, because a reader may still be merging from it.
type diffCacheEntry struct {
	ppn flash.PPN
	img []byte
}

// newDiffCache builds a cache bounded to capacity differential pages.
func newDiffCache(capacity int) *diffCache {
	return &diffCache{
		cap:     capacity,
		entries: make(map[flash.PPN]*list.Element, capacity),
		lru:     list.New(),
		inval:   make(map[flash.PPN]uint64),
	}
}

// genSnapshot returns the current invalidation generation. Readers take it
// before reading a differential page from flash and pass it to put.
func (c *diffCache) genSnapshot() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	g := c.gen
	c.mu.Unlock()
	return g
}

// get returns the page image cached for ppn, marking the entry recently
// used. The returned slice is shared: callers must not modify it.
func (c *diffCache) get(ppn flash.PPN) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[ppn]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.lru.MoveToFront(el)
	img := el.Value.(*diffCacheEntry).img
	c.mu.Unlock()
	return img, true
}

// put caches img, the used record prefix of differential page ppn, which
// the cache owns from here on; a full cache hands its least recently used
// entry over to ppn. genBefore must be the genSnapshot taken
// before the flash read that produced img: if ppn itself was invalidated
// since — the read may predate a relocation or reuse of that PPN — the
// insert is dropped. Invalidations of other PPNs do not suppress it,
// unless the snapshot is older than the whole invalidation window (then
// the history needed to judge is gone and the insert is dropped
// conservatively).
func (c *diffCache) put(ppn flash.PPN, img []byte, genBefore uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if invariantsEnabled {
		assertf(genBefore <= c.gen,
			"diff-cache insert of ppn %d carries generation %d from the future (current %d)", ppn, genBefore, c.gen)
	}
	if c.gen != genBefore {
		if genBefore+invalWindow <= c.gen {
			return // snapshot predates the retained history
		}
		if g, ok := c.inval[ppn]; ok && g > genBefore {
			return // this PPN changed since the flash read began
		}
		// A pruned entry had g <= gen-invalWindow < genBefore, so absence
		// from the window proves ppn did not change since the snapshot.
	}
	el, ok := c.entries[ppn]
	if !ok {
		if len(c.entries) < c.cap {
			c.entries[ppn] = c.lru.PushFront(&diffCacheEntry{ppn: ppn, img: img})
			return
		}
		el = c.lru.Back()
		delete(c.entries, el.Value.(*diffCacheEntry).ppn)
		c.entries[ppn] = el
	}
	*el.Value.(*diffCacheEntry) = diffCacheEntry{ppn: ppn, img: img}
	c.lru.MoveToFront(el)
}

// invalidate drops ppn's entry and bumps the generation, fencing off any
// insert whose flash read began before this call. Called wherever a
// differential page dies, moves, or is programmed anew; the callers all
// hold the flash lock, so invalidations are serialized with the mutation
// they fence.
//
//pdlvet:holds flash
func (c *diffCache) invalidate(ppn flash.PPN) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gen++
	c.inval[ppn] = c.gen
	c.invalFIFO = append(c.invalFIFO, invalEvent{ppn: ppn, gen: c.gen})
	// Expire history older than the window from the FIFO head: O(1)
	// amortized (each event is appended and popped exactly once), so the
	// flash-lock holders calling here never sweep the whole map. A PPN
	// re-invalidated within the window appears twice in the FIFO; the map
	// entry is only dropped when its newest event expires.
	for len(c.invalFIFO) > 0 && c.invalFIFO[0].gen+invalWindow <= c.gen {
		ev := c.invalFIFO[0]
		c.invalFIFO = c.invalFIFO[1:]
		if c.inval[ev.ppn] == ev.gen {
			delete(c.inval, ev.ppn)
		}
	}
	if el, ok := c.entries[ppn]; ok {
		c.lru.Remove(el)
		delete(c.entries, ppn)
	}
	c.mu.Unlock()
}

// len returns the number of cached differential pages (for tests).
func (c *diffCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return n
}
