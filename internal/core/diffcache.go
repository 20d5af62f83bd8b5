package core

import (
	"math"
	"sync"

	"pdl/internal/diff"
)

// diffCache is the differential cache: for each logical page, the newest
// flushed differential record the store has seen, in the wire form it has
// in flash. PDL_Reading's structural cost is that a cold read of a
// diff-bearing page needs two serial flash reads (base page, then
// differential page) just to pick one record; with the record in DRAM the
// read is one flash read plus the same merge the uncached path runs on a
// freshly read page (diff.ApplyRecord), so a hit, a miss and a disabled
// cache share one code path and no record is decoded to be read. Only live
// records are held: a differential page is two thirds dead records by the
// time it is read, and caching its image spends the budget on them.
//
// # Coherence
//
// An entry is valid for a reader iff its time stamp equals the diffTS the
// reader snapshotted together with the pid's mapping entry (get takes both).
// Time stamps come from the store's one monotone counter, a retried flush
// re-commits identical bytes under the identical stamp, and garbage
// collection copies a record as it is, so for the life
// of the store (pid, ts) names one content — wherever in flash it lives,
// and however often that PPN is erased and reused. Nothing is ever
// invalidated: a superseded entry can never match a snapshot again and is
// overwritten by the next insert for its pid (put keeps the larger time
// stamp, so a slow reader cannot replace a newer record with the one it
// read). The cache is never persisted; a restart starts empty.
//
// # Filling
//
// commit inserts every record of a differential page it links (write
// through): in a read-modify-write stream a record is read at most once
// before it is superseded, so a cache filled on misses alone never hits
// there. A read miss of a pid with an empty slot only flags the slot; the
// pid's next miss inserts the one record it asked for (putRead), so a record
// that is read once and then superseded does not occupy the arena.
//
// # Memory
//
// The byte bound covers everything the cache allocates per entry. Records
// are appended back to back (a wire record carries its own size, pid and
// time stamp) into fixed-size segments, allocated on first use, and found
// through an offset table of one uint32 per slot: slot pid mod nslots,
// which is the identity while the table for every pid fits a quarter of the
// bound and a direct-mapped hash beyond (a collision evicts). When the
// arena is full the oldest segment is compacted in place and becomes the
// newest: records the table still points at that were hit since they were
// written stay (second chance, the hit flag is the table entry's top bit),
// everything else goes. There is no per-entry node, list link or
// allocation. Arena bytes are reused, so readers merge or copy out under
// the mutex and never keep a reference.
//
// All methods are safe on a nil receiver (cache disabled).
type diffCache struct {
	mu sync.Mutex
	// idx maps a slot to 1 + the arena offset of its record (0: empty), with
	// refBit set once the record was hit. Allocated by the first insert.
	idx    []uint32
	nslots int
	// segs is the arena: segment k covers offsets [k*segSize, (k+1)*segSize)
	// and len(segs[k]) of it is in use. head is the segment being appended to.
	segs    [][]byte
	segSize int
	head    int
	live    int // occupied slots
}

const (
	refBit = 1 << 31
	// segPages sizes a segment in pages: the unit of reclaim, a thirtieth of
	// the default bound.
	segPages = 8
)

// newDiffCache builds a cache for numPages logical pages bounded to budget
// bytes, index included.
func newDiffCache(budget, numPages, pageSize int) *diffCache {
	budget = min(budget, math.MaxInt32) // offsets are 31 bits
	c := &diffCache{nslots: max(1, min(numPages, budget/16)), segSize: segPages * pageSize}
	arena := budget - 4*c.nslots
	n := arena / c.segSize
	if n == 0 {
		n, c.segSize = 1, max(arena, 0)
	}
	c.segs = make([][]byte, n)
	return c
}

// at returns the record at arena offset off.
func (c *diffCache) at(off int) []byte {
	return recordAt(c.segs[off/c.segSize], off%c.segSize)
}

// slot returns pid's table entry, allocating the table on first use.
func (c *diffCache) slot(pid uint32) *uint32 {
	if c.idx == nil {
		c.idx = make([]uint32, c.nslots)
	}
	return &c.idx[int(pid)%c.nslots]
}

// held returns the record pid's slot points at, if it is pid's (nil for an
// empty slot or a colliding pid's record), and the slot. The caller holds
// mu; the record aliases the arena.
func (c *diffCache) held(pid uint32) ([]byte, *uint32) {
	if c.idx == nil {
		return nil, nil // nothing was ever inserted: a lookup allocates nothing
	}
	slot := c.slot(pid)
	if *slot&^refBit == 0 {
		return nil, slot
	}
	rec := c.at(int(*slot&^refBit) - 1)
	if p, _ := diff.RecordKey(rec); p != pid {
		return nil, slot
	}
	return rec, slot
}

// find returns pid's record if it carries time stamp ts, flagging it hit.
func (c *diffCache) find(pid uint32, ts uint64) []byte {
	rec, slot := c.held(pid)
	if rec == nil {
		return nil
	}
	if _, t := diff.RecordKey(rec); t != ts {
		return nil
	}
	*slot |= refBit
	return rec
}

// merge overlays pid's cached differential onto page, a copy of its base
// page, if the cache holds the record stamped ts.
func (c *diffCache) merge(pid uint32, ts uint64, page []byte) (hit bool, err error) {
	if c == nil {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.find(pid, ts)
	if rec == nil {
		return false, nil
	}
	return true, diff.ApplyRecord(rec, page)
}

// copyOut appends pid's cached record stamped ts to dst, for callers that
// decode it or take locks while they use it.
func (c *diffCache) copyOut(pid uint32, ts uint64, dst []byte) ([]byte, bool) {
	if c == nil {
		return dst, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.find(pid, ts)
	return append(dst, rec...), rec != nil
}

// putRead caches rec, the well-formed wire record a read miss found in a
// verified differential page, the second time its pid misses: the first
// miss only flags the empty slot. A record read once and then superseded,
// every record of a read-modify-write stream, would otherwise sit in the
// arena, dead, until its segment comes round.
func (c *diffCache) putRead(rec []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pid, _ := diff.RecordKey(rec)
	if slot := c.slot(pid); *slot == 0 {
		*slot = refBit
		return
	}
	c.insert(rec)
}

// putPage caches every record of page, a differential page image commit
// has just programmed.
func (c *diffCache) putPage(page []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for rec := range diff.Records(page) {
		c.insert(rec)
	}
}

// insert appends rec to the arena and points its pid's slot at it, unless
// the cache already holds the pid at the same or a later time stamp or rec
// is larger than a segment. The caller holds mu.
func (c *diffCache) insert(rec []byte) {
	pid, ts := diff.RecordKey(rec)
	if len(rec) > c.segSize {
		return
	}
	if cur, _ := c.held(pid); cur != nil {
		if _, t := diff.RecordKey(cur); t >= ts {
			return
		}
	}
	c.makeRoom(len(rec))
	slot := c.slot(pid) // after makeRoom, which may have cleared it
	if *slot&^refBit == 0 {
		c.live++
	}
	*slot = uint32(c.head*c.segSize + len(c.segs[c.head]) + 1)
	c.segs[c.head] = append(c.segs[c.head], rec...)
}

// makeRoom leaves the head segment with n free bytes, n at most segSize. It
// ends: a reclaim clears the hit flags of what it keeps, so, with mu held,
// the second reclaim of a segment empties it.
func (c *diffCache) makeRoom(n int) {
	for {
		if c.segs[c.head] == nil {
			c.segs[c.head] = make([]byte, 0, c.segSize)
		}
		if len(c.segs[c.head])+n <= c.segSize {
			return
		}
		c.head = (c.head + 1) % len(c.segs)
		c.reclaim(c.head)
	}
}

// reclaim compacts segment k in place: a record stays iff its slot still
// points at it (no later insert for the pid, no colliding pid) and it was
// hit since it was written; its flag is cleared.
func (c *diffCache) reclaim(k int) {
	seg, w := c.segs[k], 0
	for r := 0; r < len(seg); {
		n := len(recordAt(seg, r))
		pid, _ := diff.RecordKey(seg[r:])
		slot := c.slot(pid)
		switch *slot {
		case uint32(k*c.segSize+r+1) | refBit:
			copy(seg[w:], seg[r:r+n])
			*slot = uint32(k*c.segSize + w + 1)
			w += n
		case uint32(k*c.segSize + r + 1):
			*slot = 0
			c.live--
		}
		r += n
	}
	c.segs[k] = seg[:w]
}

// len returns the number of cached records (for tests and tooling).
func (c *diffCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}
