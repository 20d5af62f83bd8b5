package core

import (
	"sync"

	"pdl/internal/flash"
)

// mapTable owns PDL's mapping state — the physical page mapping table
// (pid -> <base, differential>), the per-pid creation time stamps, the
// reverse base-page index, and the valid differential count table — with
// its own synchronization, decoupled from the channel locks.
//
// Concurrency model. Mutators hold their channel's lock, so mutators on
// different channels run concurrently — the mapTable's RWMutex is the
// real serializer for the maps and slices below, and it additionally
// orders mutations against lock-free readers (ReadPage and the read half
// of WritePage, which deliberately take no store-level lock). Readers use
// an optimistic versioned-snapshot protocol:
//
//	e, baseTS, diffTS, v := mt.snapshot(pid)    // entry + its two time stamps + per-pid version
//	... read flash pages e points at, with no store-level lock held ...
//	if !mt.stable(pid, v) { retry }
//
// Every mutation of a pid's entry bumps its version, and garbage
// collection always repoints the table BEFORE erasing the victim block,
// so a reader that raced a relocation or a flush observes a version
// change and retries against the new mapping; a reader whose version
// check passes is guaranteed the flash bytes it read belonged to the
// entry it looked up.
//
// Garbage collection is a CONCURRENT mutator too: one collector per
// channel, each racing foreground writers on other channels for the
// same pid. Collection therefore commits through conditional repoints
// (relocateBaseFrom, repointDiffFrom) that re-validate inside the
// critical section that the mapping still points where the collector's
// earlier check saw it — if a writer won the race with a newer base or
// differential, the conditional commit refuses and the collector
// discards its copy instead of clobbering the newer mapping. Only
// single-goroutine recovery, before the store is published, may touch
// the fields directly.
type mapTable struct {
	mu sync.RWMutex
	// ppmt is the physical page mapping table of section 4.2.
	ppmt []pageEntry
	// baseTS caches the creation time stamp of each pid's base page, and
	// diffTS of its newest differential; crash recovery rebuilds both.
	baseTS []uint64
	diffTS []uint64
	// ver counts mutations of each pid's entry, for the reader protocol.
	ver []uint64
	// reverseBase maps a base page's PPN back to its pid for GC: one slot per
	// physical page of the device, written when a base page is committed at
	// that PPN and never cleared. A slot is only a hint — a page that is no
	// longer a base, or was never one (slot 0, pid 0), still names a pid —
	// and baseOwner checks it against the forward mapping.
	reverseBase []uint32
	// vdct is the valid differential count table: differential page ->
	// number of valid differentials it holds. Entries are removed the
	// moment their count reaches zero — a zero count means the page is
	// obsolete, and keeping dead keys would grow the map for the lifetime
	// of the store.
	vdct map[flash.PPN]int
	// rebase holds the pids recovery brought back behind a quarantined
	// newer base page (see Recover): a differential written for such a pid
	// would be vetoed again at the next restart, so its next write commits a
	// whole base page, which clears the entry. Recover allocates the map,
	// before the store is shared, only if it met such a pid: nil, which is
	// what every other store has, is checked without the lock.
	rebase map[uint32]struct{}
}

// newMapTable builds the tables of a database of numPages logical pages over
// a device of flashPages physical ones.
func newMapTable(numPages, flashPages int) *mapTable {
	t := &mapTable{
		ppmt:        make([]pageEntry, numPages),
		baseTS:      make([]uint64, numPages),
		diffTS:      make([]uint64, numPages),
		ver:         make([]uint64, numPages),
		reverseBase: make([]uint32, flashPages),
		vdct:        make(map[flash.PPN]int),
	}
	for i := range t.ppmt {
		t.ppmt[i] = pageEntry{base: flash.NilPPN, dif: flash.NilPPN}
	}
	return t
}

// mustRebase reports whether pid's next write has to be a whole base page
// (see the rebase field).
func (t *mapTable) mustRebase(pid uint32) bool {
	if t.rebase == nil {
		return false
	}
	t.mu.RLock()
	_, ok := t.rebase[pid]
	t.mu.RUnlock()
	return ok
}

// snapshot returns pid's entry with the time stamps of its base page and of
// its differential (0 without one), which name the base image among the
// retained ones (baseImages) and the record in the differential cache,
// together with the entry's current version.
func (t *mapTable) snapshot(pid uint32) (e pageEntry, baseTS, diffTS, v uint64) {
	t.mu.RLock()
	e, baseTS, diffTS, v = t.ppmt[pid], t.baseTS[pid], t.diffTS[pid], t.ver[pid]
	t.mu.RUnlock()
	return e, baseTS, diffTS, v
}

// stable reports whether pid's entry is still at version v: flash reads
// made between snapshot and a passing stable call saw pages the entry
// still owns.
func (t *mapTable) stable(pid uint32, v uint64) bool {
	t.mu.RLock()
	cur := t.ver[pid]
	t.mu.RUnlock()
	if invariantsEnabled {
		assertf(cur >= v, "mapTable version of pid %d moved backwards: snapshot saw %d, now %d", pid, v, cur)
	}
	return cur == v
}

// baseOwner returns the pid whose CURRENT base page is ppn, with its
// creation time stamp. The reverse-index slot is validated against the
// forward mapping inside one critical section, so neither a slot that was
// never cleared nor a concurrent setBasePage on another channel can leave
// the caller holding a stale (pid, ts) pair for a page that is no longer
// anyone's base.
func (t *mapTable) baseOwner(ppn flash.PPN) (pid uint32, ts uint64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pid = t.reverseBase[ppn]
	if t.ppmt[pid].base != ppn {
		return 0, 0, false
	}
	return pid, t.baseTS[pid], true
}

// diffOf returns pid's current differential page and time stamp as one
// consistent pair.
func (t *mapTable) diffOf(pid uint32) (flash.PPN, uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ppmt[pid].dif, t.diffTS[pid]
}

// setBasePage commits a new base page: pid's base becomes ppn with
// creation time stamp ts, and any previous base/differential linkage is
// returned to the caller for release. A non-nil pin makes the commit
// conditional on pid's entry still being at version *pin — the read-path
// heal (applyRecord in read.go) pins its merged image to the version it
// read: on false the copy at ppn is dead and must be discarded by the
// caller, and the racing mutation (a GC relocation; flushes and writes are
// excluded by the shard lock the healer holds) owns the mapping. Caller
// holds a channel lock.
//
//pdlvet:holds channel
func (t *mapTable) setBasePage(pid uint32, ppn flash.PPN, ts uint64, pin *uint64) (old pageEntry, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pin != nil && t.ver[pid] != *pin {
		return pageEntry{}, false
	}
	old = t.ppmt[pid]
	if invariantsEnabled {
		assertf(old.base == flash.NilPPN || ts > t.baseTS[pid],
			"base page TS not monotone for pid %d: committed %d after %d", pid, ts, t.baseTS[pid])
	}
	t.ppmt[pid] = pageEntry{base: ppn, dif: flash.NilPPN}
	t.baseTS[pid] = ts
	t.diffTS[pid] = 0
	t.reverseBase[ppn] = pid
	delete(t.rebase, pid)
	t.ver[pid]++
	return old, true
}

// relocateBaseFrom moves pid's base page mapping from src to dst during
// garbage collection, but only if src is still pid's base — a writer on
// another channel may have committed a newer base since the collector's
// baseOwner check. It reports whether the repoint was applied; on false
// the collector's copy at dst is dead and must be discarded. The
// creation time stamp is deliberately unchanged: relocation copies
// content, it does not make it newer.
func (t *mapTable) relocateBaseFrom(pid uint32, src, dst flash.PPN) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ppmt[pid].base != src {
		return false
	}
	t.ppmt[pid].base = dst
	t.reverseBase[dst] = pid
	t.ver[pid]++
	return true
}

// setDiffPage commits one flushed differential: pid's differential page
// becomes ppn with time stamp ts, ppn's valid count grows, and the
// previous differential page (if any) is returned for release. Caller
// holds a channel lock.
//
//pdlvet:holds channel
func (t *mapTable) setDiffPage(pid uint32, ppn flash.PPN, ts uint64) (old flash.PPN) {
	t.mu.Lock()
	old = t.ppmt[pid].dif
	if invariantsEnabled {
		// Equality is legal: a flush that failed after committing some
		// mappings leaves the buffer intact, and the retry re-commits
		// the same differentials with their original time stamps.
		assertf(ts >= t.diffTS[pid],
			"differential TS not monotone for pid %d: committed %d after %d", pid, ts, t.diffTS[pid])
	}
	t.ppmt[pid].dif = ppn
	t.diffTS[pid] = ts
	t.vdct[ppn]++
	t.ver[pid]++
	t.mu.Unlock()
	return old
}

// repointDiffFrom redirects pid's differential from src (a victim page
// being compacted) to dst, but only if the mapping still carries the
// (src, ts) pair the collector validated — a writer on another channel
// may have flushed a newer differential since. It reports whether the
// repoint was applied; on false the compacted record at dst is dead
// weight and simply never enters the valid count. The old page's count
// is not touched either way: compaction drops whole victim pages via
// dropDiffPage.
func (t *mapTable) repointDiffFrom(pid uint32, src, dst flash.PPN, ts uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ppmt[pid].dif != src || t.diffTS[pid] != ts {
		return false
	}
	t.ppmt[pid].dif = dst
	t.vdct[dst]++
	t.ver[pid]++
	return true
}

// decDiffCount implements decreaseValidDifferentialCount's bookkeeping
// half (Figure 8): decrement dp's valid count, deleting the entry when it
// reaches zero, and report whether the page just became obsolete. Caller
// holds a channel lock.
//
//pdlvet:holds channel
func (t *mapTable) decDiffCount(dp flash.PPN) (obsolete bool) {
	t.mu.Lock()
	t.vdct[dp]--
	obsolete = t.vdct[dp] <= 0
	if obsolete {
		delete(t.vdct, dp)
	}
	t.mu.Unlock()
	return obsolete
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
	for pid, e := range t.ppmt {
		if e.dif == dp {
			keys = append(keys, pageStamp{uint32(pid), t.diffTS[pid]})
		}
	}
	return keys
}

// diffCount returns dp's valid differential count (0 if absent).
func (t *mapTable) diffCount(dp flash.PPN) int {
	t.mu.RLock()
	n := t.vdct[dp]
	t.mu.RUnlock()
	return n
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
