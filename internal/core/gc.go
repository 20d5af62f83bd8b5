package core

import (
	"fmt"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// relocate is PDL's garbage-collection callback (section 4.1): valid base
// pages of the victim block are moved to newly allocated pages, and the
// valid differentials of the victim's differential pages are compacted
// into new differential pages ("we move only valid differentials into a
// new differential page, i.e., we do compaction here").
//
// It runs inside the allocator's collect, which is only reached while
// the victim's channel lock is held — from a foreground allocation in
// synchronous mode, or from the channel's background CollectOne
// increment — so it may mutate the mapping tables (through the
// mapTable's versioned committers, which readers observe), and it must
// never take a shard lock (shard locks order before the channel locks).
// Every mapping repoint happens before the allocator erases the victim,
// which is what the lock-free read path's version check relies on. Relocation stays channel-local: replacement
// pages are allocated on the victim's own channel through the cold
// append point (AllocGC), so collections on different channels never
// contend and relocated (cold) data segregates from the hot stream.
//
//pdlvet:holds channel
func (s *Store) relocate(victim int) error {
	p := s.params
	ch := s.alloc.ChannelOfBlock(victim)

	// Pass 1, in physical page order: move valid base pages and collect
	// valid differentials. Base pages move first so that the second pass
	// never packs a differential whose base page is about to disappear.
	// owners is each page's base owner as of one scan of the mapping: the
	// block is full, so no base moves into it, and one that moved out since
	// fails the check at its turn (or, later still, relocateBaseFrom).
	// keep is the surviving records, back to back in the wire form they had
	// in the victim's pages and will have in the new ones; the i-th of them
	// survives from differential page from[i]: the repoint checks
	// that the mapping still points there (a writer on another channel may
	// have flushed a newer differential mid-collection). compacted lists
	// the victim's differential pages, whose valid counts are dropped only
	// after pass 2 has repointed their survivors: a collection that fails
	// in between leaves the mappings pointing at them, and a page whose
	// count is already gone would be counted obsolete by the next superseded
	// record and erased with its other live differentials still in it.
	var keep []byte
	var from, compacted []flash.PPN
	owners := s.mt.basesIn(p.PPNOf(victim, 0), p.PagesPerBlock)
	for i, pid := range owners {
		ppn := p.PPNOf(victim, i)
		if pid != ftl.NoPID {
			if e := s.mt.snapshot(pid); e.base == ppn {
				if err := s.relocateBasePage(pid, e.baseTS, ppn, ch); err != nil {
					return err
				}
				continue
			}
		}
		if s.mt.diffCount(ppn) > 0 {
			var n int
			var err error
			if keep, n, err = s.validDifferentials(ppn, keep); err != nil {
				return err
			}
			for ; n > 0; n-- {
				from = append(from, ppn)
			}
			compacted = append(compacted, ppn)
		}
	}

	// Pass 2: compact the surviving differentials into new differential
	// pages, packing as many as fit per page: each page is the next run of
	// keep, copied.
	for len(keep) > 0 {
		n, used := 0, 0
		for rec := range diff.Records(keep) {
			if used+len(rec) > p.DataSize {
				break
			}
			used += len(rec)
			n++
		}
		if n == 0 {
			return fmt.Errorf("core: %d bytes of surviving differentials do not start with a record that fits a page", len(keep))
		}
		if err := s.writeCompactedPage(keep[:used], from[:n], ch); err != nil {
			return err
		}
		keep, from = keep[used:], from[n:]
	}
	for _, ppn := range compacted {
		s.mt.dropDiffPage(ppn)
	}
	return nil
}

// relocateBasePage copies one valid base page out of a victim block to
// the victim channel's cold stream. ts is the creation time stamp of the
// base the mapping named; the copy keeps it — relocation does not make the
// content newer, and recovery must still see any later differential as
// the winner.
//
// Relocation is also the integrity layer's scrubbing pass: the copy is
// verified against its spare-area ECC, single-bit flips are corrected
// before the copy programs (the new page gets a fresh seal), and an
// UNCORRECTABLE page is copied through with its original ECC bytes so
// the corruption stays detectable at the new address — GC must never
// take shard locks, so it cannot consult the write buffer and must leave
// healing to the next foreground read (or fail that read loudly).
//
//pdlvet:holds channel
func (s *Store) relocateBasePage(pid uint32, ts uint64, ppn flash.PPN, ch int) error {
	p := s.params
	scratch := s.getPage()
	defer s.putPage(scratch)
	spare := s.spares.get()
	defer s.spares.put(spare)
	bad, err := s.verifiedRead(ppn, scratch, spare)
	if err != nil {
		return err
	}
	dst, err := s.alloc.AllocGC(ch)
	if err != nil {
		return err
	}
	spareBuf := s.chans[ch].spareBuf
	ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeBase, PID: pid, TS: ts}, spareBuf)
	if len(bad) == 0 {
		ftl.SealSpare(scratch, spareBuf) // verified copy: fresh seal (scrub)
	} else {
		// Uncorrectable content: carry the original ECC so corruption
		// stays detectable; only the header checksum is recomputed over
		// the header encoded anew.
		copy(ftl.SpareECC(spareBuf, p.DataSize), ftl.SpareECC(spare, p.DataSize))
		ftl.ResealHeader(spareBuf, p.DataSize)
	}
	if err := s.dev.Program(dst, scratch, spareBuf); err != nil {
		return err
	}
	if !s.mt.relocateBaseFrom(pid, ppn, dst) {
		// A writer on another channel committed a newer base for pid
		// since relocate checked the mapping: the copy at dst is stale content under
		// an older time stamp than the winner's. Discard it (dst is on our
		// channel).
		s.alloc.NoteObsolete(dst)
	}
	return nil
}

// validDifferentials reads a differential page and appends to keep the
// records that are still current (the mapping table still points at this
// page for their pid), as they are; n is how many. Currency is judged on each
// record's wire header, and nothing is decoded.
//
// The read is verified: an uncorrectably corrupt victim page is rebuilt
// from the differential cache when every one of its current records is
// still there (rescuedDifferentials), and otherwise fails the collection
// loudly with the typed error — silently compacting garbage records, or
// silently dropping the page's survivors, would turn into wrong reads later.
//
//pdlvet:holds channel
func (s *Store) validDifferentials(ppn flash.PPN, keep []byte) (_ []byte, n int, err error) {
	page := s.getPage()
	defer s.putPage(page)
	spare := s.spares.get()
	bad, err := s.verifiedRead(ppn, page, spare)
	s.spares.put(spare)
	if err != nil {
		return keep, 0, err
	}
	if len(bad) > 0 {
		var ok bool
		if keep, n, ok = s.rescuedDifferentials(ppn, keep); !ok {
			s.itel.unrecoverablePages.Add(1)
			return keep, 0, &ftl.PageError{PID: ftl.NoPID, PPN: ppn, Kind: ftl.CorruptDiff}
		}
		s.itel.pagesHealed.Add(1)
		return keep, n, nil
	}
	for rec := range diff.Records(page) {
		pid, ts := diff.RecordKey(rec)
		if int(pid) >= s.numPages {
			continue
		}
		if e := s.mt.snapshot(pid); e.dif != ppn || e.diffTS() != ts {
			continue
		}
		keep = append(keep, rec...)
		n++
	}
	return keep, n, nil
}

// rescuedDifferentials rebuilds the current records of differential page
// ppn, whose flash copy is lost, from the differential cache, appending them
// to keep: the mapping table says which pids' differentials live there and
// under which time stamps, and the rescue holds iff the cache has every one
// of them (a cached record was well formed when it went in).
//
//pdlvet:holds channel
func (s *Store) rescuedDifferentials(ppn flash.PPN, keep []byte) (_ []byte, n int, ok bool) {
	keys := s.mt.diffsIn(ppn)
	out := keep
	for _, k := range keys {
		if out, ok = s.dcache.copyOut(k.pid, k.ts, out); !ok {
			return keep, 0, false
		}
	}
	return out, len(keys), true
}

// writeCompactedPage writes recs, a run of surviving records that fits a
// page, into a new differential page on the victim's channel and repoints
// the mapping table; the i-th record came from page from[i]. Like a
// relocated base page it goes to the cold stream: records
// that outlived a collection are older than anything in the open
// differential block, and measured worse there (they keep blocks that
// would have died whole half alive). The page image is built in a pooled
// scratch page — garbage collection compacts a page per surviving batch,
// and allocating a fresh image each time put a page-sized allocation on
// every collection increment.
//
//pdlvet:holds channel
func (s *Store) writeCompactedPage(recs []byte, from []flash.PPN, ch int) error {
	q, err := s.alloc.AllocGC(ch)
	if err != nil {
		return err
	}
	img := s.getPage()
	defer s.putPage(img)
	packDiffPage(img, recs)
	spareBuf := s.chans[ch].spareBuf
	ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeDiff, PID: ftl.NoPID, TS: s.nextTS()}, spareBuf)
	ftl.SealSpare(img, spareBuf)
	if err := s.dev.Program(q, img, spareBuf); err != nil {
		return err
	}
	if valid, lost := s.mt.repointCompacted(q, recs, from); valid == 0 {
		// Writers on other channels superseded every record mid-compaction,
		// each with a newer time stamp; q never entered the valid count, so
		// nothing will ever decrement it to obsolescence — discard it now (q
		// is on our channel).
		s.alloc.NoteObsolete(q)
	} else {
		s.alloc.NoteDead(q, lost) // the records that lost their repoint
	}
	return nil
}
