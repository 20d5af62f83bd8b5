package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/ecc"
	"pdl/internal/ftl"
)

// Recover reconstructs a PDL store from the contents of flash memory after
// a system failure, implementing PDL_RecoveringfromCrash (Figure 11): one
// scan through the physical pages rebuilds the physical page mapping table
// and the valid differential count table, arbitrating between co-existing
// versions with the creation time stamps, and counts the useless pages it
// discovers (stale base pages, differential pages with no valid
// differential) obsolete in the allocator, and the records that lost
// arbitration on the pages it keeps as their dead bytes.
//
// Figure 11 replays a pid's newest differential onto whichever base page is
// newest below it, which is only right while the base the differential was
// computed against survives. Here every record names that base, and one rule
// arbitrates: a pid's candidates are each surviving base page on its own and
// each record whose named base survives, paired with that base, and the
// newest candidate wins. A record whose base was lost — quarantined, or read
// as erased — is no candidate, so the pid falls back to its newest surviving
// version, as it does behind a lost differential page: consistent, just
// older.
//
// The scan (takeCensus) runs in two phases. Reading and verifying is
// embarrassingly parallel over blocks — each physical page is judged by its
// own spare header and contents — so Recover fans it out across one
// goroutine per GOMAXPROCS (at most one per block), each filling the page
// table of a contiguous block range and listing the key of every
// differential record it found. Arbitration is then one serial pass in
// physical page order over what the workers saw: the newest candidate wins,
// the lowest physical page wins ties. No worker decides anything, so the
// census is the serial scan's for every worker count. Recover adopts it into
// a store whose background collectors start only then.
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
// honoured where it is set: by the page-update methods that program it, and
// by stores written before validity moved to DRAM. This store programs none.
func Recover(dev flash.Device, numPages int, opts Options) (*Store, error) {
	s, err := build(dev, numPages, opts)
	if err != nil {
		return nil, err
	}
	c, err := takeCensus(dev, numPages, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	s.adopt(c)
	s.startCollectors()
	return s, nil
}

// census is what recovery learns from flash: the mapping table (versions
// zero), each physical page's scan result, the newest time stamp on any page
// header, and the pages read, bits corrected, header checksum failures and
// uncorrectable pages.
type census struct {
	*mapTable
	pages                                             []pageInfo
	maxTS                                             uint64
	reads, corrected, checksumFailures, uncorrectable atomic.Int64
}

// takeCensus scans dev for a store of numPages logical pages with workers
// goroutines, at most one per block, and arbitrates. It writes nothing.
func takeCensus(dev flash.Device, numPages, workers int) (*census, error) {
	p := dev.Params()
	workers = min(workers, p.NumBlocks)
	c := &census{mapTable: newMapTable(numPages), pages: make([]pageInfo, p.NumPages())}

	// Phase 1: read and verify every physical page, one worker per block
	// range. Workers write disjoint slices of c.pages and return the keys of
	// the records on their differential pages, in page order.
	keys := make([][]recordKey, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys[w], errs[w] = scanBlockRange(dev, numPages, w*p.NumBlocks/workers, (w+1)*p.NumBlocks/workers, c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: arbitrate, once, in physical page order. Base pages first:
	// each pid's newest survivor, and every survivor by its name (pid, time
	// stamp), the lowest page of a name standing for its copies. Then each
	// record whose named base survives competes with the pid's winner so far.
	//
	// New time stamps outrank everything the scan saw, not only what it
	// adopts: a quarantined page is still in flash and is read again at the
	// next restart. A page's header stamp is no older than any record it
	// carries.
	bases := make(map[pageStamp]flash.PPN)
	for ppn := range c.pages {
		h := &c.pages[ppn].hdr
		if h.Obsolete || (h.Type != ftl.TypeBase && h.Type != ftl.TypeDiff) {
			continue
		}
		c.maxTS = max(c.maxTS, h.TS)
		if h.Type != ftl.TypeBase || int(h.PID) >= numPages || c.pages[ppn].quarantined {
			continue
		}
		k := pageStamp{h.PID, h.TS}
		if _, ok := bases[k]; !ok {
			bases[k] = flash.PPN(ppn)
		}
		if e := &c.ents[h.PID]; e.base == flash.NilPPN || h.TS > e.baseTS {
			e.base, e.baseTS = flash.PPN(ppn), h.TS
		}
	}
	for _, ks := range keys {
		for _, k := range ks {
			// The pid's winner so far is its newest record, else its newest
			// base page (Fig. 11: ts(d) > ts(bp)).
			e := &c.ents[k.pid]
			if k.ts <= max(e.baseTS, e.diffTS()) {
				continue
			}
			bp, ok := bases[pageStamp{k.pid, k.base}]
			if !ok {
				continue // computed against a base page that is lost
			}
			e.base, e.dif = bp, k.ppn
			e.baseTS, e.difDist, e.recLen = k.base, uint32(k.ts-k.base), k.n
		}
	}
	// A valid differential page's records that lost arbitration are dead
	// bytes on it: all it carries, less the records it is valid for.
	for _, e := range c.ents {
		if e.dif != flash.NilPPN {
			dp, ok := c.vdct[e.dif]
			if !ok {
				dp.dead = c.pages[e.dif].recBytes
			}
			dp.valid++
			dp.dead -= int32(e.recLen)
			c.vdct[e.dif] = dp
		}
	}
	return c, nil
}

// adopt installs census c into s, which build made and nothing has used: the
// mapping table, the time stamp counter, the scan's counts and the
// allocator's view of every block. A block with any programmed page is
// adopted as full, and its erased tail counts as reclaimable, so a
// collection gives it back like garbage; fully erased blocks stay on the
// free list.
func (s *Store) adopt(c *census) {
	s.mt = c.mapTable
	s.ts.Store(c.maxTS)
	s.rtel.recoverReads.Add(c.reads.Load())
	s.itel.eccCorrectedBits.Add(c.corrected.Load())
	s.itel.headerChecksumFailures.Add(c.checksumFailures.Load())
	s.itel.unrecoverablePages.Add(c.uncorrectable.Load())
	for i := range c.pages {
		ppn, pi := flash.PPN(i), &c.pages[i]
		if pi.hdr.Type == ftl.TypeFree && !pi.torn {
			continue
		}
		s.alloc.AdoptFullBlock(s.params.BlockOf(ppn)) // a no-op after the block's first page
		s.alloc.NoteWritten(ppn)
		if c.useless(ppn) {
			s.alloc.NoteObsolete(ppn)
		} else if pi.hdr.Type == ftl.TypeDiff {
			s.alloc.NoteDead(ppn, int(c.vdct[ppn].dead))
		}
	}
}

// pageInfo is what the recovery scan learned about one physical page.
type pageInfo struct {
	hdr  ftl.Header
	torn bool // spare erased but data programmed (torn base write)
	// quarantined marks a page that failed integrity verification (header
	// checksum or uncorrectable data ECC): it is excluded from arbitration,
	// so the records that name it are too, and counted obsolete. A page
	// whose header failed its checksum keeps none of it (hdr is the zero
	// Header, of no type recovery arbitrates); a quarantined base page's
	// header stamp still counts toward the store's newest time stamp.
	quarantined bool
	// recBytes is the bytes of the records on a differential page.
	recBytes int32
}

// useless reports whether the programmed page ppn holds nothing the recovered
// store can reach, and is therefore counted obsolete: it carries the obsolete
// flag, it was quarantined, it is a base page that lost arbitration, a
// differential page holding no valid differential (the two kinds of useless
// pages of section 4.5), a torn program, or a page of a type this method
// never writes.
func (c *census) useless(ppn flash.PPN) bool {
	pi := &c.pages[ppn]
	h := pi.hdr
	// A quarantined page's content (or header) failed verification and it
	// competed for nothing; a corrupt header cannot be trusted to classify
	// the page either.
	if h.Obsolete || pi.quarantined {
		return true
	}
	switch h.Type {
	case ftl.TypeBase:
		return int(h.PID) >= len(c.ents) || c.ents[h.PID].base != ppn
	case ftl.TypeDiff:
		return c.vdct[ppn].valid == 0
	case ftl.TypeFree:
		return pi.torn
	}
	return true // unknown page type: written by another method
}

// recordKey is one differential record the recovery scan found: the page
// it lies on, the pid it belongs to, its creation time stamp, the time stamp
// of the base page it names and its wire length.
type recordKey struct {
	ppn      flash.PPN
	pid      uint32
	ts, base uint64
	n        uint16
}

// scanBlockRange reads blocks [lo, hi) of dev for census c: every page's
// spare header lands in c.pages (indices disjoint between workers), what it
// read, corrected and rejected is counted in c, and it returns the key of
// every record on the block range's differential pages, in page order. It
// decides no winner. Each worker owns its buffers, and devices serve
// concurrent reads.
//
// A programmed page must pass its spare-area header
// checksum and (base and differential pages) its data-area ECC before it
// may compete: a page that fails either check is quarantined — excluded
// from arbitration and counted obsolete — so a corrupt spare can never
// masquerade as a valid mapping and corrupt data never silently wins
// arbitration. Single-bit errors are corrected in place (and counted)
// before differential pages are decoded.
func scanBlockRange(dev flash.Device, numPages, lo, hi int, c *census) ([]recordKey, error) {
	p, infos := dev.Params(), c.pages
	var keys []recordKey
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
			if err := scanRead(dev, ppn, data, spare); err != nil {
				return nil, fmt.Errorf("core: recovery scan of ppn %d: %w", ppn, err)
			}
			c.reads.Add(1)
			h := ftl.DecodeHeader(spare)
			infos[ppn] = pageInfo{hdr: h}
			if h.Obsolete {
				continue
			}
			if h.Type != ftl.TypeFree &&
				!ftl.VerifyHeaderChecksum(spare, p.DataSize) {
				c.checksumFailures.Add(1)
				infos[ppn] = pageInfo{quarantined: true}
				continue
			}
			switch {
			case h.Type == ftl.TypeFree:
				// A free-looking page may hide a torn program whose spare
				// never made it; verify the data area is still erased so the
				// allocator never hands out a dirty page.
				infos[ppn].torn = !allErased(data)
			case h.Type == ftl.TypeDiff || h.Type == ftl.TypeBase && int(h.PID) < numPages:
				// build ruled out a geometry the codes do not fit.
				corrected, bad, err := ecc.CorrectPageSectors(data, ftl.SpareECC(spare, p.DataSize))
				c.corrected.Add(int64(corrected))
				if err != nil || len(bad) > 0 {
					// A differential page's records are unreadable; the pids
					// it served fall back to their base images (or an older
					// surviving differential), which is consistent — just
					// older.
					c.uncorrectable.Add(1)
					infos[ppn].quarantined = true
					continue
				}
				if h.Type == ftl.TypeBase {
					continue
				}
				// Arbitration needs each record's key only, and a dead
				// differential page (unmarked, like every superseded page) is
				// scanned like a live one: walk the wire form, decode nothing.
				for rec := range diff.Records(data) {
					infos[ppn].recBytes += int32(len(rec))
					pid, ts := diff.RecordKey(rec)
					if int(pid) < numPages {
						keys = append(keys, recordKey{ppn: ppn, pid: pid, ts: ts, base: diff.RecordBase(rec), n: uint16(len(rec))})
					}
				}
			}
		}
	}
	return keys, nil
}

// scanRead is the raw read of the recovery scan: one charged device read
// returning both areas, with header-checksum and ECC interpretation left to
// the scan (erased and torn pages are exempt from verification by
// construction, so the scan cannot delegate to verifyData blindly).
//
//pdlvet:ignore deviceio raw-read funnel
func scanRead(dev flash.Device, ppn flash.PPN, data, spare []byte) error {
	return dev.Read(ppn, data, spare)
}

// allErased reports whether every byte of b is 0xFF, the erased state. It
// compares eight bytes at a time, then the tail.
func allErased(b []byte) bool {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != math.MaxUint64 {
			return false
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0xFF {
			return false
		}
	}
	return true
}
