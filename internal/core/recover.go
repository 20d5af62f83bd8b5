package core

import (
	"fmt"
	"runtime"
	"sync"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// Recover reconstructs a PDL store from the contents of flash memory after
// a system failure, implementing PDL_RecoveringfromCrash (Figure 11): one
// scan through the physical pages rebuilds the physical page mapping table
// and the valid differential count table, arbitrating between co-existing
// versions with the creation time stamps, and counts the useless pages it
// discovers (stale base pages, differential pages with no valid
// differential) obsolete in the allocator.
//
// The scan is embarrassingly parallel over blocks — each physical page is
// judged by its own spare header and contents, and arbitration is a pure
// merge by time stamp — so Recover fans it out across
// Options.RecoveryWorkers goroutines, each scanning a contiguous block
// range into a private candidate table; the tables are then merged in
// block order with exactly the serial algorithm's arbitration rule
// (greatest time stamp wins, first seen — i.e. lowest physical page —
// wins ties). The recovered state is therefore identical for every
// worker count, including the serial scan (RecoveryWorkers = 1).
//
// The recovered state reflects exactly the data that had been written out
// to flash; differentials that were still in the differential write buffer
// at the time of the failure are lost, as the paper specifies ("the data
// retained in the write buffer only but not written out to flash memory
// are not recovered").
//
// Recovery writes nothing. Where the paper's procedure sets the useless
// pages obsolete in flash, this one counts them obsolete in DRAM: the store
// it returns reads validity from the allocator's counters and the mapping
// table alone, and the next recovery arbitrates by time stamp again whatever
// the flags say. The recovered state is a pure function of the flash
// content, so recovery is idempotent by construction and a failure during
// restart (section 4.5) leaves nothing half done. The obsolete flag is still
// honoured where it is set: by the page-update methods that program it, by
// stores written before validity moved to DRAM, and on the one page this
// store marks itself (discardLostHeal).
func Recover(dev flash.Device, numPages int, opts Options) (*Store, error) {
	s, err := New(dev, numPages, opts)
	if err != nil {
		return nil, err
	}
	p := dev.Params()

	workers := opts.RecoveryWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p.NumBlocks {
		workers = p.NumBlocks
	}

	// Phase 1: scan every physical page's spare area (and the data area of
	// differential pages and of suspicious free pages), one worker per
	// block range. Workers write disjoint slices of infos and reduce what
	// they see into private per-pid candidate tables; no decisions about
	// winners are taken yet.
	infos := make([]pageInfo, p.NumPages())
	scans := make([]scanResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * p.NumBlocks / workers
		hi := (w + 1) * p.NumBlocks / workers
		wg.Add(1)
		go func(res *scanResult, lo, hi int) {
			defer wg.Done()
			res.err = s.scanBlockRange(lo, hi, infos, res)
		}(&scans[w], lo, hi)
	}
	wg.Wait()
	for w := range scans {
		if scans[w].err != nil {
			return nil, scans[w].err
		}
	}

	// Phase 2: merge the per-worker tables in block order, which preserves
	// the serial scan's arbitration exactly. Base pages first — a
	// differential can only be judged against the final winning base.
	for w := range scans {
		for pid, c := range scans[w].bases {
			if s.mt.ppmt[pid].base == flash.NilPPN || c.ts > s.mt.baseTS[pid] {
				s.mt.ppmt[pid].base = c.ppn
				s.mt.baseTS[pid] = c.ts
			}
		}
	}
	// A quarantined (uncorrectably corrupt) base page poisons the
	// differentials computed against it: when the quarantined image was
	// newer than the surviving winner, any differential newer than the
	// quarantined time stamp was computed against the lost image, and
	// replaying it onto the older survivor would fabricate page content.
	// The global poison threshold per pid is the OLDEST quarantined base
	// (conservative when several copies of a pid are corrupt at once).
	poison := make(map[uint32]uint64)
	for w := range scans {
		for pid, ts := range scans[w].poison {
			if cur, ok := poison[pid]; !ok || ts < cur {
				poison[pid] = ts
			}
		}
	}
	for w := range scans {
		for pid, c := range scans[w].diffs {
			if s.mt.ppmt[pid].base == flash.NilPPN {
				continue // differential without a base page cannot be applied
			}
			if c.ts <= s.mt.baseTS[pid] {
				continue // the base page is newer (Fig. 11: ts(d) > ts(bp))
			}
			if pts, ok := poison[pid]; ok && pts > s.mt.baseTS[pid] && c.ts > pts {
				continue // computed against a quarantined, lost base image
			}
			if s.mt.ppmt[pid].dif == flash.NilPPN || c.ts > s.mt.diffTS[pid] {
				s.mt.ppmt[pid].dif = c.ppn
				s.mt.diffTS[pid] = c.ts
			}
		}
	}
	for pid := range s.mt.ppmt {
		e := &s.mt.ppmt[pid]
		if e.dif != flash.NilPPN {
			s.mt.vdct[e.dif]++
		}
		if e.base != flash.NilPPN {
			s.mt.reverseBase[e.base] = uint32(pid)
		}
	}
	for pid, pts := range poison {
		if pts > s.mt.baseTS[pid] {
			// The pid fell back behind a quarantined base that stays in
			// flash, unmarked, until its block is collected, and keeps
			// vetoing differentials newer than itself at every restart: the
			// pid's next write has to outrank it as a base page.
			if s.mt.rebase == nil {
				s.mt.rebase = make(map[uint32]struct{})
			}
			s.mt.rebase[pid] = struct{}{}
		}
	}
	// New time stamps outrank everything the scan saw, not only what it
	// adopted: a quarantined page or a vetoed differential is still in flash
	// and competes again at the next restart.
	var maxTS uint64
	for w := range scans {
		maxTS = max(maxTS, scans[w].maxTS)
	}
	s.ts.Store(maxTS)

	// Rebuild the allocator's view: a block with any programmed page is
	// adopted as full (its erased tail is reclaimed by the next garbage
	// collection of the block); fully erased blocks stay on the free list.
	for blk := 0; blk < p.NumBlocks; blk++ {
		written := false
		var blockSeq uint64
		for i := 0; i < p.PagesPerBlock; i++ {
			ppn := p.PPNOf(blk, i)
			pi := &infos[ppn]
			if pi.hdr.Type == ftl.TypeFree && !pi.torn {
				continue
			}
			if !written {
				written = true
				s.alloc.AdoptFullBlock(blk)
			}
			blockSeq = max(blockSeq, pi.hdr.Seq)
			s.alloc.NoteWritten(ppn)
			if s.useless(ppn, pi) {
				s.alloc.NoteObsolete(ppn)
			}
		}
		if blockSeq > 0 {
			s.alloc.AdoptSeq(blk, blockSeq)
		}
	}
	return s, nil
}

// pageInfo is what the recovery scan learned about one physical page.
type pageInfo struct {
	hdr  ftl.Header
	torn bool // spare erased but data programmed (torn base write)
	// quarantined marks a page that failed integrity verification (header
	// checksum or uncorrectable data ECC): it is excluded from arbitration
	// and counted obsolete.
	quarantined bool
}

// useless reports whether the programmed page ppn holds nothing the recovered
// store can reach, and is therefore counted obsolete: it carries the obsolete
// flag, it was quarantined, it is a base page that lost arbitration, a
// differential page holding no valid differential (the two kinds of useless
// pages of section 4.5), a torn program, or a page of a type this method
// never writes. The tables must be final.
func (s *Store) useless(ppn flash.PPN, pi *pageInfo) bool {
	h := pi.hdr
	// A quarantined page's content (or header) failed verification and it
	// competed for nothing; a corrupt header cannot be trusted to classify
	// the page either.
	if h.Obsolete || pi.quarantined {
		return true
	}
	switch h.Type {
	case ftl.TypeBase:
		return int(h.PID) >= s.numPages || s.mt.ppmt[h.PID].base != ppn
	case ftl.TypeDiff:
		return s.mt.vdct[ppn] == 0
	case ftl.TypeFree:
		return pi.torn
	}
	return true // unknown page type: written by another method
}

// candidate is one page competing to be a pid's base page or newest
// differential.
type candidate struct {
	ppn flash.PPN
	ts  uint64
}

// scanResult is one worker's private reduction of its block range: the
// best base-page and differential candidate per pid it encountered, under
// the same arbitration rule the merge applies globally (greatest time
// stamp wins, first seen wins ties — workers scan ascending physical
// pages, so first seen is the lowest PPN).
type scanResult struct {
	bases map[uint32]candidate
	diffs map[uint32]candidate
	// poison records, per pid, the oldest time stamp of a quarantined
	// (uncorrectably corrupt) base page the worker saw: differentials newer
	// than it may have been computed against the lost image and are
	// rejected by the merge when the quarantined page would have won.
	poison map[uint32]uint64
	// maxTS is the greatest creation time stamp of the programmed pages the
	// worker could read a trustworthy header from, winners or not. A page's
	// header stamp is no older than any record it carries.
	maxTS uint64
	err   error
}

// scanBlockRange reads blocks [lo, hi) for recovery: every page's spare
// header lands in infos (indices disjoint between workers), and the
// worker's candidate tables collect base pages and decoded differentials.
// Each worker owns its buffers, and devices serve concurrent reads.
//
// On a sealed store a programmed page must pass its spare-area header
// checksum and (base and differential pages) its data-area ECC before it
// may compete: a page that fails either check is quarantined — excluded
// from arbitration and counted obsolete — so a corrupt spare can never
// masquerade as a valid mapping and corrupt data never silently wins
// arbitration. Single-bit errors are corrected in place (and counted)
// before differential pages are decoded.
func (s *Store) scanBlockRange(lo, hi int, infos []pageInfo, res *scanResult) error {
	dev, p, numPages := s.dev, s.params, s.numPages
	res.bases = make(map[uint32]candidate)
	res.diffs = make(map[uint32]candidate)
	res.poison = make(map[uint32]uint64)
	spare := make([]byte, p.SpareSize)
	data := make([]byte, p.DataSize)
	for blk := lo; blk < hi; blk++ {
		if dev.IsBad(blk) {
			for i := 0; i < p.PagesPerBlock; i++ {
				infos[blk*p.PagesPerBlock+i] = pageInfo{hdr: ftl.Header{Type: ftl.TypeFree}}
			}
			continue
		}
		for i := 0; i < p.PagesPerBlock; i++ {
			ppn := flash.PPN(blk*p.PagesPerBlock + i)
			// One charged device read fetches both areas: the data area is
			// needed anyway for torn-page detection, differential decoding,
			// and ECC verification.
			if err := s.scanRead(ppn, data, spare); err != nil {
				return fmt.Errorf("core: recovery scan of ppn %d: %w", ppn, err)
			}
			h := ftl.DecodeHeader(spare)
			infos[ppn] = pageInfo{hdr: h}
			if h.Obsolete {
				continue
			}
			if s.sealed && h.Type != ftl.TypeFree &&
				!ftl.VerifyHeaderChecksum(spare, p.DataSize) {
				s.itel.headerChecksumFailures.Add(1)
				infos[ppn].quarantined = true
				continue
			}
			if h.Type == ftl.TypeBase || h.Type == ftl.TypeDiff {
				res.maxTS = max(res.maxTS, h.TS)
			}
			switch h.Type {
			case ftl.TypeFree:
				// A free-looking page may hide a torn program whose spare
				// never made it; verify the data area is still erased so the
				// allocator never hands out a dirty page.
				if !allErased(data) {
					infos[ppn].torn = true
				}
			case ftl.TypeBase:
				if int(h.PID) >= numPages {
					continue
				}
				if s.sealed && len(s.verifyData(data, spare)) > 0 {
					s.itel.unrecoverablePages.Add(1)
					infos[ppn].quarantined = true
					if ts, ok := res.poison[h.PID]; !ok || h.TS < ts {
						res.poison[h.PID] = h.TS
					}
					continue
				}
				if c, ok := res.bases[h.PID]; !ok || h.TS > c.ts {
					res.bases[h.PID] = candidate{ppn: ppn, ts: h.TS}
				}
			case ftl.TypeDiff:
				if s.sealed && len(s.verifyData(data, spare)) > 0 {
					// The page's records are unreadable; the pids it served
					// fall back to their base images (or an older surviving
					// differential), which is consistent — just older.
					s.itel.unrecoverablePages.Add(1)
					infos[ppn].quarantined = true
					continue
				}
				// Arbitration needs each record's key only, and a dead
				// differential page (unmarked, like every superseded page) is
				// scanned like a live one: walk the wire form, decode nothing.
				for rec := range diff.Records(data) {
					pid, ts := diff.RecordKey(rec)
					if int(pid) >= numPages {
						continue
					}
					if c, ok := res.diffs[pid]; !ok || ts > c.ts {
						res.diffs[pid] = candidate{ppn: ppn, ts: ts}
					}
				}
			}
		}
	}
	return nil
}

func allErased(b []byte) bool {
	for _, x := range b {
		if x != 0xFF {
			return false
		}
	}
	return true
}
