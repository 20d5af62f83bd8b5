// Package ipl implements in-page logging (IPL), the log-based method of
// Lee and Moon (SIGMOD 2007) that the paper uses as its log-based baseline.
//
// IPL divides every flash block into data pages and log pages. Each logical
// page has a fixed home slot among the data pages of its block. Updates do
// not rewrite the data page; instead update logs accumulate in an in-memory
// log buffer (of size page-size/16, paper footnote 13) and are flushed as
// log sectors into the log pages of the same block. Recreating a logical
// page reads its data page plus every log page of the block that holds one
// of its log sectors. When a block's log region fills up, the block is
// merged: every logical page is recreated and written into a fresh block,
// and the old block is erased — which is also IPL's garbage collection
// (paper footnote 11).
//
// IPL is tightly coupled with the storage system: it must see individual
// update operations, not just final page images. LogUpdate is that hook;
// the generic WritePage entry point falls back to deriving update logs by
// comparison so that IPL can still serve as a drop-in ftl.Method.
package ipl

import (
	"encoding/binary"
	"fmt"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// Options configures an IPL store.
type Options struct {
	// LogPagesPerBlock is the number of pages of each block reserved for
	// log sectors. The paper's IPL(18KB) uses 9 of 64 pages (14.1% of
	// flash) and IPL(64KB) uses 32 of 64 (50%). Zero means 1/4 of the
	// block.
	LogPagesPerBlock int
	// LogBufBytes is the in-memory log buffer size per logical page and
	// equally the flash log sector size. Zero means page-size/16
	// (footnote 13).
	LogBufBytes int
}

// maxPageSize is the largest page an update-log record addresses: its
// offset is 16 bits wide.
const maxPageSize = 1 << 16

// logRef locates one flushed log sector of a logical page.
type logRef struct {
	ppn flash.PPN // log page
	off int       // byte offset of the sector within the page
}

// blockLogState tracks the log region of one physical block.
type blockLogState struct {
	nextSector int
}

// Store is an in-page logging flash translation layer.
type Store struct {
	dev    flash.Device
	params flash.Params

	numPages    int
	logPages    int // log pages per block
	dataPer     int // data pages per block
	sectorSize  int
	sectorsPer  int // log sectors per block
	numLogical  int // logical blocks
	blockMap    []int
	freeBlocks  []int
	written     []bool
	logState    []blockLogState // indexed by physical block
	logIndex    [][]logRef      // pid -> flushed log sectors, oldest first
	memBuf      [][]byte        // pid -> in-memory log buffer (encoded records)
	ts          uint64
	gcStats     flash.Stats
	merges      int64
	scratch     []byte
	scratchPage []byte
	spareBuf    []byte
}

var _ ftl.Method = (*Store)(nil)

// New builds an IPL store for a database of numPages logical pages.
func New(dev flash.Device, numPages int, opts Options) (*Store, error) {
	p := dev.Params()
	if numPages <= 0 {
		return nil, fmt.Errorf("ipl: numPages must be positive, got %d", numPages)
	}
	if err := ftl.CheckHeaderFits(p.SpareSize); err != nil {
		return nil, fmt.Errorf("ipl: %w", err)
	}
	if p.DataSize > maxPageSize {
		return nil, fmt.Errorf("ipl: page data area %d exceeds %d, the largest an update-log record addresses",
			p.DataSize, maxPageSize)
	}
	logPages := opts.LogPagesPerBlock
	if logPages == 0 {
		logPages = p.PagesPerBlock / 4
	}
	if logPages < 1 || logPages >= p.PagesPerBlock {
		return nil, fmt.Errorf("ipl: LogPagesPerBlock %d out of range [1, %d)",
			logPages, p.PagesPerBlock)
	}
	sectorSize := opts.LogBufBytes
	if sectorSize == 0 {
		sectorSize = p.DataSize / 16
	}
	if sectorSize < 8 || sectorSize > p.DataSize {
		return nil, fmt.Errorf("ipl: LogBufBytes %d out of range [8, %d]", sectorSize, p.DataSize)
	}
	dataPer := p.PagesPerBlock - logPages
	numLogical := (numPages + dataPer - 1) / dataPer
	if numLogical+1 > p.NumBlocks {
		return nil, fmt.Errorf("ipl: database needs %d blocks plus a merge spare, flash has %d",
			numLogical, p.NumBlocks)
	}
	s := &Store{
		dev:         dev,
		params:      p,
		numPages:    numPages,
		logPages:    logPages,
		dataPer:     dataPer,
		sectorSize:  sectorSize,
		sectorsPer:  logPages * (p.DataSize / sectorSize),
		numLogical:  numLogical,
		blockMap:    make([]int, numLogical),
		written:     make([]bool, numPages),
		logState:    make([]blockLogState, p.NumBlocks),
		logIndex:    make([][]logRef, numPages),
		memBuf:      make([][]byte, numPages),
		scratch:     make([]byte, p.DataSize),
		scratchPage: make([]byte, p.DataSize),
		spareBuf:    make([]byte, p.SpareSize),
	}
	// Logical block i starts at physical block i; the remaining blocks
	// form the free pool used by merging.
	for i := 0; i < numLogical; i++ {
		s.blockMap[i] = i
	}
	for b := p.NumBlocks - 1; b >= numLogical; b-- {
		if !dev.IsBad(b) {
			s.freeBlocks = append(s.freeBlocks, b)
		}
	}
	return s, nil
}

// Name implements ftl.Method, e.g. "IPL(18KB)" for 18 Kbytes of log pages
// per block.
func (s *Store) Name() string {
	bytes := s.logPages * s.params.DataSize
	if bytes >= 1024 && bytes%1024 == 0 {
		return fmt.Sprintf("IPL(%dKB)", bytes/1024)
	}
	return fmt.Sprintf("IPL(%dB)", bytes)
}

// Device implements ftl.Method.
func (s *Store) Device() flash.Device { return s.dev }

// PageSize implements ftl.Method.
func (s *Store) PageSize() int { return s.params.DataSize }

// Stats implements ftl.Method.
func (s *Store) Stats() flash.Stats { return s.dev.Stats() }

// NumPages returns the database size in logical pages.
func (s *Store) NumPages() int { return s.numPages }

// GCStats returns the flash cost accumulated inside merge operations,
// IPL's garbage collection.
func (s *Store) GCStats() flash.Stats { return s.gcStats }

// Merges returns the number of block merges performed.
func (s *Store) Merges() int64 { return s.merges }

// ResetGCStats zeroes merge-cost accounting.
func (s *Store) ResetGCStats() { s.gcStats = flash.Stats{}; s.merges = 0 }

// home returns the (logical block, slot) of pid.
func (s *Store) home(pid uint32) (int, int) {
	return int(pid) / s.dataPer, int(pid) % s.dataPer
}

// dataPPN returns the physical page currently holding pid's data page.
func (s *Store) dataPPN(pid uint32) flash.PPN {
	lb, slot := s.home(pid)
	return s.params.PPNOf(s.blockMap[lb], slot)
}

// LogUpdate records one update operation against pid: the DBMS changed
// data[off:off+len(chunk)] of the logical page. This is the tightly-coupled
// entry point that requires storage-manager integration; it appends an
// update log to the page's in-memory log buffer, spilling the buffer to a
// flash log sector when it fills.
func (s *Store) LogUpdate(pid uint32, off int, chunk []byte) error {
	if err := ftl.CheckPID(pid, s.numPages); err != nil {
		return err
	}
	if !s.written[pid] {
		return fmt.Errorf("%w: pid %d (update-log before initial write)", ftl.ErrNotWritten, pid)
	}
	p := s.params
	if off < 0 || off+len(chunk) > p.DataSize {
		return fmt.Errorf("ipl: update log [%d,%d) outside page", off, off+len(chunk))
	}
	// Split oversized update logs so each record fits the log buffer.
	maxData := s.sectorSize - 4
	for len(chunk) > 0 {
		n := len(chunk)
		if n > maxData {
			n = maxData
		}
		if err := s.appendRecord(pid, off, chunk[:n]); err != nil {
			return err
		}
		off += n
		chunk = chunk[n:]
	}
	return nil
}

// appendRecord appends one update-log record to pid's in-memory buffer,
// flushing the buffer to flash first if the record does not fit.
func (s *Store) appendRecord(pid uint32, off int, data []byte) error {
	need := 4 + len(data)
	if len(s.memBuf[pid])+need > s.sectorSize {
		if err := s.flushLogBuffer(pid); err != nil {
			return err
		}
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(off))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(data)))
	s.memBuf[pid] = append(s.memBuf[pid], hdr[:]...)
	s.memBuf[pid] = append(s.memBuf[pid], data...)
	return nil
}

// flushLogBuffer writes pid's in-memory log buffer into a log sector of
// its block, merging the block first if the log region is full.
func (s *Store) flushLogBuffer(pid uint32) error {
	if len(s.memBuf[pid]) == 0 {
		return nil
	}
	lb, _ := s.home(pid)
	pb := s.blockMap[lb]
	if s.logState[pb].nextSector >= s.sectorsPer {
		if err := s.merge(lb); err != nil {
			return err
		}
		pb = s.blockMap[lb]
	}
	p := s.params
	sector := s.logState[pb].nextSector
	s.logState[pb].nextSector++
	perPage := p.DataSize / s.sectorSize
	logPage := s.dataPer + sector/perPage
	off := (sector % perPage) * s.sectorSize
	ppn := p.PPNOf(pb, logPage)
	// Pad the sector image with erased bytes so the record stream
	// terminates cleanly.
	img := make([]byte, s.sectorSize)
	copy(img, s.memBuf[pid])
	for i := len(s.memBuf[pid]); i < s.sectorSize; i++ {
		img[i] = 0xFF
	}
	if err := s.dev.ProgramPartial(ppn, off, img); err != nil {
		return fmt.Errorf("ipl: writing log sector for pid %d: %w", pid, err)
	}
	s.logIndex[pid] = append(s.logIndex[pid], logRef{ppn: ppn, off: off})
	s.memBuf[pid] = s.memBuf[pid][:0]
	return nil
}

// WritePage implements ftl.Method. On first write the logical page is
// programmed into its home data page. Afterwards, WritePage reflects an
// eviction from the DBMS buffer: any update logs recorded through
// LogUpdate are flushed; if the caller never used LogUpdate, the update
// logs are derived by recreating the current page and comparing (which
// costs the reads of a recreate — the price of driving a tightly-coupled
// method through a loosely-coupled interface).
func (s *Store) WritePage(pid uint32, data []byte) error {
	if err := ftl.CheckPID(pid, s.numPages); err != nil {
		return err
	}
	p := s.params
	if err := ftl.CheckPageBuf(data, p.DataSize); err != nil {
		return err
	}
	if !s.written[pid] {
		ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeData, PID: pid, TS: s.nextTS()}, s.spareBuf)
		if err := s.dev.Program(s.dataPPN(pid), data, s.spareBuf); err != nil {
			return fmt.Errorf("ipl: initial write of pid %d: %w", pid, err)
		}
		s.written[pid] = true
		return nil
	}
	// Derive the update logs the storage manager did not hand us: compare
	// the final image against the current reconstructed state.
	if err := s.recreate(pid, s.scratchPage); err != nil {
		return err
	}
	d, err := diff.Compute(pid, 0, s.scratchPage, data)
	if err != nil {
		return err
	}
	for _, r := range d.Ranges {
		if err := s.LogUpdate(pid, r.Off, r.Data); err != nil {
			return err
		}
	}
	// Eviction: persist the page's pending log buffer.
	return s.flushLogBuffer(pid)
}

// Evict flushes the pending in-memory log buffer of pid, reflecting the
// page into flash. Experiment drivers that feed updates through LogUpdate
// call Evict where page-based methods would call WritePage.
func (s *Store) Evict(pid uint32) error {
	if err := ftl.CheckPID(pid, s.numPages); err != nil {
		return err
	}
	return s.flushLogBuffer(pid)
}

// ReadPage implements ftl.Method: read the data page and the log pages of
// the block that hold this page's log sectors, then replay the logs.
func (s *Store) ReadPage(pid uint32, buf []byte) error {
	if err := ftl.CheckPID(pid, s.numPages); err != nil {
		return err
	}
	if err := ftl.CheckPageBuf(buf, s.params.DataSize); err != nil {
		return err
	}
	return s.recreate(pid, buf)
}

// recreate rebuilds the current logical page image: data page + flushed
// log sectors (each distinct log page read once) + in-memory buffer.
func (s *Store) recreate(pid uint32, buf []byte) error {
	if !s.written[pid] {
		return fmt.Errorf("%w: pid %d", ftl.ErrNotWritten, pid)
	}
	if err := s.dev.ReadData(s.dataPPN(pid), buf); err != nil {
		return err
	}
	if err := s.replayFlashLogs(pid, buf, nil); err != nil {
		return err
	}
	applyRecords(buf, s.memBuf[pid])
	return nil
}

// replayFlashLogs applies pid's flushed log sectors to page in
// chronological order, reading each distinct log page exactly once (the
// at-most-log-pages-per-block read bound of IPL). A non-nil cache shares
// log-page reads across calls, as a block merge does.
func (s *Store) replayFlashLogs(pid uint32, page []byte, cache map[flash.PPN][]byte) error {
	refs := s.logIndex[pid]
	if len(refs) == 0 {
		return nil
	}
	if cache == nil {
		cache = make(map[flash.PPN][]byte, s.logPages)
	}
	for _, ref := range refs {
		img, ok := cache[ref.ppn]
		if !ok {
			img = make([]byte, len(s.scratch))
			if err := s.dev.ReadData(ref.ppn, img); err != nil {
				return err
			}
			cache[ref.ppn] = img
		}
		applyRecords(page, img[ref.off:ref.off+s.sectorSize])
	}
	return nil
}

// Flush implements ftl.Method: all pending in-memory log buffers are
// written out (the write-through of a log-based method).
func (s *Store) Flush() error {
	for pid := range s.memBuf {
		if len(s.memBuf[pid]) == 0 {
			continue
		}
		if err := s.flushLogBuffer(uint32(pid)); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) nextTS() uint64 {
	s.ts++
	return s.ts
}

// applyRecords replays a stream of [off(2) len(2) data] update records
// onto page, stopping at the erased terminator.
func applyRecords(page []byte, records []byte) {
	for len(records) >= 4 {
		off := int(binary.LittleEndian.Uint16(records[0:]))
		n := int(binary.LittleEndian.Uint16(records[2:]))
		if off == 0xFFFF && n == 0xFFFF {
			return // erased tail
		}
		records = records[4:]
		if n > len(records) || off+n > len(page) {
			return // torn or corrupt record; stop replaying
		}
		copy(page[off:], records[:n])
		records = records[n:]
	}
}

// merge rewrites logical block lb into a fresh physical block, folding
// every page's flushed logs into its data page, then erases the old block.
// This is IPL's merge operation and garbage collection in one.
func (s *Store) merge(lb int) error {
	before := s.dev.Stats()
	err := s.mergeInner(lb)
	s.gcStats = s.gcStats.Add(s.dev.Stats().Sub(before))
	if err == nil {
		s.merges++
	}
	return err
}

func (s *Store) mergeInner(lb int) error {
	if len(s.freeBlocks) == 0 {
		return ftl.ErrNoSpace
	}
	p := s.params
	old := s.blockMap[lb]
	fresh := s.freeBlocks[len(s.freeBlocks)-1]
	s.freeBlocks = s.freeBlocks[:len(s.freeBlocks)-1]

	firstPID := lb * s.dataPer
	merged := make([]byte, p.DataSize)
	// One shared cache: the merge reads each log page of the block once.
	cache := make(map[flash.PPN][]byte, s.logPages)
	for slot := 0; slot < s.dataPer; slot++ {
		pid := firstPID + slot
		if pid >= s.numPages || !s.written[pid] {
			continue
		}
		// Recreate from flash state only; pending in-memory buffers stay
		// pending (they are newer than the merged image).
		if err := s.dev.ReadData(p.PPNOf(old, slot), merged); err != nil {
			return err
		}
		if err := s.replayFlashLogs(uint32(pid), merged, cache); err != nil {
			return err
		}
		ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeData, PID: uint32(pid), TS: s.nextTS()}, s.spareBuf)
		if err := s.dev.Program(p.PPNOf(fresh, slot), merged, s.spareBuf); err != nil {
			return err
		}
		s.logIndex[pid] = s.logIndex[pid][:0]
	}
	if err := s.dev.Erase(old); err != nil {
		return err
	}
	s.blockMap[lb] = fresh
	s.logState[fresh] = blockLogState{}
	s.logState[old] = blockLogState{}
	s.freeBlocks = append(s.freeBlocks, old)
	return nil
}
