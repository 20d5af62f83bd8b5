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
// and however often that PPN is erased and reused. Nothing needs to be
// invalidated: a superseded entry can never match a snapshot again and is
// overwritten by the next insert for its pid (put keeps the larger time
// stamp, so a slow reader cannot replace a newer record with the one it
// read). A new base page supersedes the pid's differential with no insert to
// overwrite it, so commit drops that record (drop), for the room and not for
// coherence. The cache is never persisted; a restart starts empty.
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
// bound and a direct-mapped hash beyond (a collision evicts). A record no
// slot points at any more, superseded by a later insert for its pid or by
// its pid's new base page, or pushed out by a colliding pid's, is dead, and
// each segment counts its dead bytes. When the head segment is full, the
// segment with the most dead bytes is compacted in place and becomes the
// head, if dropping its dead records makes the room the insert needs: no
// live record goes while dead ones can make room, and in a read-modify-write
// stream much of the arena is records a later write superseded. Only when
// none does, the segment after the head is compacted and becomes the head,
// keeping the live records no larger than the mean size of every record the
// cache has admitted, and emptied if those still leave the insert too little
// room. Every hit saves the same one flash read whatever the record's size,
// so a byte held by a small record saves more reads than one held by a large
// one. Age and past hits do not count: a hit flag that also kept the records
// hit since they were written (second chance) moved no workload's simulated
// time by more than 0.4%. There is no per-entry node, list link or
// allocation.
// Arena bytes are reused, so readers merge or copy out under the mutex and
// never keep a reference.
//
// The arena never grows past the segments the bound pays for. The base
// images held for a buffer pool's write-backs (see baseImages) have a share
// of the same budget but their own bytes: the two never trade (see
// Options.DiffCachePages).
//
// All methods are safe on a nil receiver (cache disabled).
type diffCache struct {
	mu sync.Mutex
	// idx maps a slot to 1 + the arena offset of its record; an empty slot is
	// 0, or refBit once its pid missed (putRead). Allocated by the first
	// insert.
	idx    []uint32
	nslots int
	// segs is the arena: segment k covers offsets [k*segSize, (k+1)*segSize)
	// and len(segs[k]) of it is in use. head is the segment being appended to.
	segs    [][]byte
	segSize int
	head    int
	// dead[k] is the bytes of segment k's records no slot points at.
	dead []int
	live int // occupied slots
	// admitted and admittedBytes count the records insert has taken and their
	// bytes: their ratio is the size a reclaim under pressure keeps up to.
	admitted, admittedBytes int
}

const (
	refBit = 1 << 31 // an empty slot whose pid missed once
	// segPages sizes a segment in pages: the unit of reclaim, a thirty-second
	// of the smallest default bound.
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
	c.segs, c.dead = make([][]byte, n), make([]int, n)
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

// find returns pid's record if it carries time stamp ts.
func (c *diffCache) find(pid uint32, ts uint64) []byte {
	rec, _ := c.held(pid)
	if rec == nil {
		return nil
	}
	if _, t := diff.RecordKey(rec); t != ts {
		return nil
	}
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
// miss only marks the empty slot with refBit. A record read once and then
// superseded, every record of a read-modify-write stream, would otherwise
// sit in the arena, dead, until its segment comes round.
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
// the cache already holds the pid at the same or a later time stamp. A
// record larger than a segment is refused, and the pid's older record goes
// with it: it can never hit again. The caller holds mu.
func (c *diffCache) insert(rec []byte) {
	pid, ts := diff.RecordKey(rec)
	cur, slot := c.held(pid)
	if cur != nil {
		if _, t := diff.RecordKey(cur); t >= ts {
			return
		}
	}
	if len(rec) > c.segSize {
		if cur != nil {
			c.forget(slot, len(cur))
		}
		return
	}
	c.admitted++
	c.admittedBytes += len(rec)
	c.makeRoom(len(rec))
	slot = c.slot(pid) // allocates the table on the first insert
	if old := int(*slot &^ refBit); old == 0 {
		c.live++
	} else { // pid's older record, or a colliding pid's, is dead now
		c.dead[(old-1)/c.segSize] += len(c.at(old - 1))
	}
	*slot = uint32(c.head*c.segSize + len(c.segs[c.head]) + 1)
	c.segs[c.head] = append(c.segs[c.head], rec...)
}

// drop forgets pid's record if it is older than ts, the time stamp of the
// base page that has just superseded it.
func (c *diffCache) drop(pid uint32, ts uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, slot := c.held(pid)
	if rec == nil {
		return
	}
	if _, t := diff.RecordKey(rec); t >= ts {
		return
	}
	c.forget(slot, len(rec))
}

// forget empties slot, which points at a record of n bytes: the record is
// dead.
func (c *diffCache) forget(slot *uint32, n int) {
	c.dead[int(*slot-1)/c.segSize] += n
	*slot = 0
	c.live--
}

// makeRoom leaves the head segment with n free bytes, n at most segSize. It
// ends: a segment compacted for its dead bytes has the room, and the segment
// after the head is emptied if what it keeps leaves too little.
func (c *diffCache) makeRoom(n int) {
	if invariantsEnabled {
		assertf(len(c.segs) == cap(c.segs), "diff cache: %d segments in a table of %d: the arena grew past its bound", len(c.segs), cap(c.segs))
	}
	for {
		if c.segs[c.head] == nil {
			c.segs[c.head] = make([]byte, 0, c.segSize)
		}
		if len(c.segs[c.head])+n <= c.segSize {
			return
		}
		if k := c.deadest(n); k >= 0 {
			c.head = k
			c.reclaim(k, c.segSize)
			continue
		}
		c.head = (c.head + 1) % len(c.segs)
		c.reclaim(c.head, c.admittedBytes/c.admitted)
		if len(c.segs[c.head])+n > c.segSize {
			c.reclaim(c.head, 0)
		}
	}
}

// deadest returns the segment with the most dead bytes among those that
// dropping them leaves n bytes free in, or -1.
func (c *diffCache) deadest(n int) int {
	best := -1
	for k, seg := range c.segs {
		if len(seg)-c.dead[k]+n <= c.segSize && c.dead[k] > 0 && (best < 0 || c.dead[k] > c.dead[best]) {
			best = k
		}
	}
	return best
}

// reclaim compacts segment k in place, keeping the live records of at most
// keep bytes: the records no slot points at go, and so does every larger
// live one, its slot cleared.
func (c *diffCache) reclaim(k int, keep int) {
	seg, w, dead := c.segs[k], 0, 0
	for r := 0; r < len(seg); {
		n := len(recordAt(seg, r))
		pid, _ := diff.RecordKey(seg[r:])
		switch slot := c.slot(pid); {
		case *slot != uint32(k*c.segSize+r+1):
			dead += n
		case n <= keep:
			if w != r {
				copy(seg[w:], seg[r:r+n])
				*slot = uint32(k*c.segSize + w + 1)
			}
			w += n
		default:
			*slot = 0
			c.live--
		}
		r += n
	}
	if invariantsEnabled {
		assertf(dead == c.dead[k], "diff cache: segment %d counts %d dead bytes, its records %d", k, c.dead[k], dead)
	}
	c.segs[k], c.dead[k] = seg[:w], 0
}

// bytes returns what the cache has allocated: the table and the segments.
func (c *diffCache) bytes() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 4 * len(c.idx)
	for _, seg := range c.segs {
		n += cap(seg)
	}
	return n
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
