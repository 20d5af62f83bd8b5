package core

import (
	"sync"
	"unsafe"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// mapTable owns PDL's mapping state — the physical page mapping table of
// section 4.2, one 24-byte mapEntry per logical page and nothing per
// physical page, and the valid differential count table — with its own
// synchronization, decoupled from the channel locks.
//
// Concurrency model. Mutators hold their channel's lock, so mutators on
// different channels run concurrently — the mapTable's RWMutex is the
// real serializer for the entries and the map below, and it additionally
// orders mutations against lock-free readers (ReadPage and the read half
// of WritePage, which deliberately take no store-level lock). Readers use
// an optimistic versioned-snapshot protocol:
//
//	e := mt.snapshot(pid)         // the entry: pages, time stamps, version
//	... read flash pages e points at, with no store-level lock held ...
//	if !mt.stable(pid, e) { retry }
//
// Every mutation of a pid's entry bumps its 16-bit version, and garbage
// collection always repoints the table BEFORE erasing the victim block,
// so a reader that raced a relocation or a flush observes a changed entry
// and retries against the new mapping; a reader whose check passes is
// guaranteed the flash bytes it read belonged to the entry it looked up.
// The check compares the whole entry, version and both pages included: a
// reader holds the pid's shard lock, under which only garbage collection
// and racing heals move the entry, so an entry that came back to the same
// pages and the same version within one read attempt would take 65,536
// collections of that pid.
//
// Garbage collection is a CONCURRENT mutator too: one collector per
// channel, each racing foreground writers on other channels for the
// same pid. Collection therefore commits through conditional repoints
// (relocateBaseFrom, repointCompacted) that re-validate inside the
// critical section that the mapping still points where the collector's
// earlier check saw it — if a writer won the race with a newer base or
// differential, the conditional commit refuses and the collector
// discards its copy instead of clobbering the newer mapping. Only
// single-goroutine recovery, before the store is published, may touch
// the entries directly.
type mapTable struct {
	mu sync.RWMutex
	// ents is the physical page mapping table, indexed by pid.
	ents []mapEntry
	// vdct is the valid differential count table: differential page ->
	// number of valid differentials it holds, and the bytes of the records
	// on it that are no longer valid (the allocator's dead bytes of the
	// page, which pick victims). Entries are removed the moment their count
	// reaches zero — a zero count means the page is obsolete, and keeping
	// dead keys would grow the map for the lifetime of the store.
	vdct map[flash.PPN]diffPage
}

// mapEntry is one row of the physical page mapping table: the pair <base
// page address, differential page address> of section 4.2; the base page's
// creation time stamp (0: never written) and its newest differential's
// distance from it (0: none; the record carries it too, in 24 bits, and
// Case 3 keeps it within diff.MaxBaseDistance); that record's wire length,
// which its page loses when it is superseded; and the reader protocol's
// version, the one field crash recovery does not rebuild.
type mapEntry struct {
	baseTS    uint64
	base, dif flash.PPN
	difDist   uint32
	recLen    uint16
	ver       uint16
}

// diffTS returns the time stamp of the entry's newest differential, 0
// without one.
func (e mapEntry) diffTS() uint64 {
	if e.difDist == 0 {
		return 0
	}
	return e.baseTS + uint64(e.difDist)
}

// newMapTable builds the tables of a database of numPages logical pages.
func newMapTable(numPages int) *mapTable {
	t := &mapTable{
		ents: make([]mapEntry, numPages),
		vdct: make(map[flash.PPN]diffPage),
	}
	for i := range t.ents {
		t.ents[i].base, t.ents[i].dif = flash.NilPPN, flash.NilPPN
	}
	return t
}

// bytes returns the mapping state's size: the entries, and the valid
// differential count table's keys and values (not the map's overhead).
func (t *mapTable) bytes() int {
	t.mu.RLock()
	n := len(t.vdct)
	t.mu.RUnlock()
	return len(t.ents)*int(unsafe.Sizeof(mapEntry{})) + n*int(unsafe.Sizeof(flash.PPN(0))+unsafe.Sizeof(diffPage{}))
}

// snapshot returns pid's entry. Its time stamps name the base image among
// the retained ones (baseImages) and the record in the differential cache.
func (t *mapTable) snapshot(pid uint32) mapEntry {
	t.mu.RLock()
	e := t.ents[pid]
	t.mu.RUnlock()
	return e
}

// stable reports whether pid's entry is still the snapshot e: flash reads
// made between snapshot and a passing stable call saw pages the entry
// still owns.
func (t *mapTable) stable(pid uint32, e mapEntry) bool {
	t.mu.RLock()
	cur := t.ents[pid]
	t.mu.RUnlock()
	return cur == e
}

// basesIn returns the owners of the base pages among the n physical pages
// from first: the i-th is the pid whose base page is first+i, or ftl.NoPID.
// It is one scan of the whole table, for garbage collection's relocation of
// a full victim block, taken one basesInChunk of entries at a time so the
// scan holds off no mutator for long. The set need not be consistent: a full
// block gains no base page, so an entry that moves between two chunks can
// only leave an owner that no longer owns its page, and relocation checks
// each owner again at its turn.
func (t *mapTable) basesIn(first flash.PPN, n int) []uint32 {
	owners := make([]uint32, n)
	for i := range owners {
		owners[i] = ftl.NoPID
	}
	for lo := 0; lo < len(t.ents); lo += basesInChunk {
		t.mu.RLock()
		for i, e := range t.ents[lo:min(lo+basesInChunk, len(t.ents))] {
			if off := e.base - first; off >= 0 && int(off) < n {
				owners[off] = uint32(lo + i)
			}
		}
		t.mu.RUnlock()
	}
	return owners
}

// basesInChunk is the number of entries basesIn scans under one hold of the
// read lock: 24 KB of entries.
const basesInChunk = 1024

// diffPage is a differential page's entry in the valid differential count
// table.
type diffPage struct {
	valid int32 // records on the page that are their pid's newest differential
	dead  int32 // bytes of the records on the page that are not
}

// setBasePage commits a new base page: pid's base becomes ppn with
// creation time stamp ts, and the previous entry is returned to the caller
// for the release of its pages (old.recLen is the length of the
// differential record it drops, 0 without one). A non-nil pin makes the
// commit conditional on pid's entry still being the snapshot *pin — the
// read-path heal (applyRecord in read.go) pins its merged image to the
// entry it read: on false the copy at ppn is dead and must be discarded by
// the caller, and the racing mutation (a GC relocation; flushes and writes
// are excluded by the shard lock the healer holds) owns the mapping.
// Caller holds a channel lock.
//
//pdlvet:holds channel
func (t *mapTable) setBasePage(pid uint32, ppn flash.PPN, ts uint64, pin *mapEntry) (old mapEntry, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := &t.ents[pid]
	if pin != nil && *e != *pin {
		return mapEntry{}, false
	}
	old = *e
	if invariantsEnabled {
		assertf(old.base == flash.NilPPN || ts > old.baseTS,
			"base page TS not monotone for pid %d: committed %d after %d", pid, ts, old.baseTS)
	}
	*e = mapEntry{baseTS: ts, base: ppn, dif: flash.NilPPN, ver: old.ver + 1}
	return old, true
}

// relocateBaseFrom moves pid's base page mapping from src to dst during
// garbage collection, but only if src is still pid's base — a writer on
// another channel may have committed a newer base since the collector's
// check. It reports whether the repoint was applied; on false
// the collector's copy at dst is dead and must be discarded. The
// creation time stamp is deliberately unchanged: relocation copies
// content, it does not make it newer.
func (t *mapTable) relocateBaseFrom(pid uint32, src, dst flash.PPN) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := &t.ents[pid]
	if e.base != src {
		return false
	}
	e.base = dst
	e.ver++
	return true
}

// setDiffPage commits one flushed record, rec, of the pid's current base: its
// differential page becomes ppn, ppn's valid count grows, and the previous
// differential page (if any) is returned for release with the length of the
// record it loses. Caller holds a channel lock.
//
//pdlvet:holds channel
func (t *mapTable) setDiffPage(ppn flash.PPN, rec []byte) (old flash.PPN, oldLen int) {
	pid, ts := diff.RecordKey(rec)
	t.mu.Lock()
	e := &t.ents[pid]
	old, oldLen = e.dif, int(e.recLen)
	if invariantsEnabled {
		// Equality is legal: a flush that failed after committing some
		// mappings leaves the buffer intact, and the retry re-commits
		// the same differentials with their original time stamps.
		assertf(ts >= e.diffTS(),
			"differential TS not monotone for pid %d: committed %d after %d", pid, ts, e.diffTS())
		assertf(diff.RecordBase(rec) == e.baseTS && ts > e.baseTS,
			"pid %d: the differential of ts %d names the base of ts %d, the mapping holds %d", pid, ts, diff.RecordBase(rec), e.baseTS)
	}
	e.dif, e.difDist, e.recLen = ppn, uint32(ts-e.baseTS), uint16(len(rec))
	e.ver++
	dp := t.vdct[ppn]
	dp.valid++
	t.vdct[ppn] = dp
	t.mu.Unlock()
	return old, oldLen
}

// repointCompacted redirects the pids of recs, the records a collection has
// just programmed into differential page dst, from[i] being the victim page
// the i-th came from — each only if the mapping still carries the (from[i],
// ts) pair the collector validated: a writer on another channel may have
// flushed a newer differential since. It returns how many records dst holds
// valid and the bytes of those that lost their repoint, which are dead on dst
// from its birth (counted only if dst holds a valid one: a page with none is
// obsolete). The victim pages' counts are not touched: compaction drops them
// whole via dropDiffPage.
func (t *mapTable) repointCompacted(dst flash.PPN, recs []byte, from []flash.PPN) (valid, lost int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := 0
	for rec := range diff.Records(recs) {
		pid, ts := diff.RecordKey(rec)
		if e := &t.ents[pid]; e.dif == from[i] && e.diffTS() == ts {
			e.dif = dst
			e.ver++
			valid++
		} else {
			lost += len(rec)
		}
		i++
	}
	if valid > 0 {
		t.vdct[dst] = diffPage{valid: int32(valid), dead: int32(lost)}
	}
	return valid, lost
}

// decDiffCount implements decreaseValidDifferentialCount's bookkeeping
// half (Figure 8): one record of n bytes on dp is superseded. It decrements
// dp's valid count and reports the bytes dp's dead count gains: n, or, when
// the count reaches zero and the page just became obsolete, minus the dead
// bytes it had, which leave the count with the page (its entry is deleted).
// Caller holds a channel lock.
//
//pdlvet:holds channel
func (t *mapTable) decDiffCount(dp flash.PPN, n int) (obsolete bool, dead int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.vdct[dp]
	if e.valid--; e.valid <= 0 {
		delete(t.vdct, dp)
		return true, -int(e.dead)
	}
	e.dead += int32(n)
	t.vdct[dp] = e
	return false, n
}

// pageStamp names one differential, or one base page image, for the life of
// the store: the logical page and the creation time stamp. It is the key of
// a record in the differential cache and of an image among the retained base
// images. No written page carries time stamp 0.
type pageStamp struct {
	pid uint32
	ts  uint64
}

// diffsIn returns, as one consistent set, the differentials that live in
// differential page dp: a scan of the whole table, for garbage
// collection's rescue of a corrupt page.
func (t *mapTable) diffsIn(dp flash.PPN) []pageStamp {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var keys []pageStamp
	for pid, e := range t.ents {
		if e.dif == dp {
			keys = append(keys, pageStamp{uint32(pid), e.diffTS()})
		}
	}
	return keys
}

// diffCount returns dp's valid differential count (0 if absent).
func (t *mapTable) diffCount(dp flash.PPN) int {
	t.mu.RLock()
	n := t.vdct[dp].valid
	t.mu.RUnlock()
	return int(n)
}

// dropDiffPage forgets a differential page wholesale (its survivors have
// been compacted elsewhere and its block is about to be erased). Caller
// holds a channel lock.
//
//pdlvet:holds channel
func (t *mapTable) dropDiffPage(dp flash.PPN) {
	t.mu.Lock()
	delete(t.vdct, dp)
	t.mu.Unlock()
}
