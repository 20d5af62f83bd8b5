package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

// diffsOf decodes the differentials packed in a differential page.
func diffsOf(pageData []byte) []diff.Differential { return diff.DecodeAll(pageData) }

// This file implements the extension the paper leaves as further study
// (section 4.5): "To recover the physical page mapping table without
// scanning all the physical pages in flash memory, we have to log the
// changes in the mapping table into flash memory."
//
// Design. A small region of blocks is reserved for checkpoints. A
// checkpoint serializes the physical page mapping table (with the
// per-page creation time stamps), the time-stamp and block-sequence
// counters, and the allocator's per-block bookkeeping, and writes it as a
// sequence of checkpoint pages into one half of the region (the halves
// alternate, so the previous checkpoint survives a crash during writing).
//
// Every data page's spare header carries its block's activation sequence
// number. Recovery loads the newest complete checkpoint, then reads only
// the FIRST page's spare of every block: a block whose sequence number
// still matches the checkpoint is untouched and its mapping entries are
// trusted; every other block (rewritten, newly activated, or active at
// checkpoint time) is scanned in full and arbitrated by time stamps as in
// PDL_RecoveringfromCrash. For a mostly stable database this reduces the
// recovery scan from one read per page to roughly one read per block.

// ErrNoCheckpoint reports that no complete checkpoint exists in the
// region.
var ErrNoCheckpoint = errors.New("core: no complete checkpoint found")

// ErrCheckpointTooLarge reports a database whose tables do not fit half
// the checkpoint region.
var ErrCheckpointTooLarge = errors.New("core: checkpoint does not fit the reserved region")

// checkpoint wire format constants.
const (
	ckptMagic = 0x504C4443 // "CDLP"
	// Version history: 1 per-pid <base, dif, baseTS, diffTS> (PR 5);
	// 2 adds the per-pid adaptive logging mode byte. Older checkpoints
	// are rejected — full-scan Recover handles such devices.
	ckptVersion    = 2
	ckptHdrSize    = 4 + 2 + 2 + 8 + 8 + 8 + 4 + 4 + 4 // magic..payloadLen
	ckptPerPID     = 4 + 4 + 8 + 8 + 1
	ckptPerBlock   = 8 + 2 + 2 + 1
	ckptStateFree  = 0
	ckptStateFull  = 1
	ckptStateOther = 2 // active or excluded: must be rescanned
)

// ckptRegion manages the reserved checkpoint blocks of a store.
type ckptRegion struct {
	blocks []int // region block ids, ascending
	nextID uint64
	// half toggles between the low and high half of blocks.
	useHighHalf bool
}

// enableCheckpoints reserves the region. Called from New when
// Options.CheckpointBlocks > 0.
func (s *Store) enableCheckpoints(numBlocks int) error {
	if numBlocks < 2 || numBlocks%2 != 0 {
		return fmt.Errorf("core: CheckpointBlocks must be an even number >= 2, got %d", numBlocks)
	}
	ids := s.alloc.ExcludeBlocks(numBlocks)
	if len(ids) < numBlocks {
		return fmt.Errorf("core: cannot reserve %d checkpoint blocks", numBlocks)
	}
	// ExcludeBlocks pops from the free-list tail; sort ascending for a
	// deterministic layout.
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	s.ckpt = &ckptRegion{blocks: ids}
	// Verify capacity: the serialized state must fit one half.
	p := s.params
	halfPages := len(ids) / 2 * p.PagesPerBlock
	if s.checkpointSize() > halfPages*p.DataSize {
		return fmt.Errorf("%w: need %d bytes, half-region holds %d",
			ErrCheckpointTooLarge, s.checkpointSize(), halfPages*p.DataSize)
	}
	return nil
}

// checkpointSize returns the serialized checkpoint size in bytes.
func (s *Store) checkpointSize() int {
	return ckptHdrSize + s.numPages*ckptPerPID + s.params.NumBlocks*ckptPerBlock
}

// serializeCheckpoint builds the checkpoint payload.
func (s *Store) serializeCheckpoint(id uint64) []byte {
	p := s.params
	buf := make([]byte, 0, s.checkpointSize())
	buf = binary.LittleEndian.AppendUint32(buf, ckptMagic)
	buf = binary.LittleEndian.AppendUint16(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // chunk count patched below
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = binary.LittleEndian.AppendUint64(buf, s.ts.Load())
	buf = binary.LittleEndian.AppendUint64(buf, 0) // reserved
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.numPages))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.NumBlocks))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.checkpointSize()))
	for pid := 0; pid < s.numPages; pid++ {
		e := s.mt.ppmt[pid]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.base))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.dif))
		buf = binary.LittleEndian.AppendUint64(buf, s.mt.baseTS[pid])
		buf = binary.LittleEndian.AppendUint64(buf, s.mt.diffTS[pid])
		buf = append(buf, s.mt.mode[pid])
	}
	for b := 0; b < p.NumBlocks; b++ {
		bs := s.alloc.BlockStats(b)
		buf = binary.LittleEndian.AppendUint64(buf, s.alloc.SeqOf(b))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(bs.Written))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(bs.Obsolete))
		state := byte(ckptStateOther)
		switch {
		case s.isCkptBlock(b):
			state = ckptStateOther
		case bs.Free:
			state = ckptStateFree
		case !bs.Active:
			state = ckptStateFull
		}
		buf = append(buf, state)
	}
	// Patch the chunk count.
	chunks := (len(buf) + s.params.DataSize - 1) / s.params.DataSize
	binary.LittleEndian.PutUint16(buf[6:], uint16(chunks))
	return buf
}

func (s *Store) isCkptBlock(b int) bool {
	if s.ckpt == nil {
		return false
	}
	for _, cb := range s.ckpt.blocks {
		if cb == b {
			return true
		}
	}
	return false
}

// WriteCheckpoint flushes the differential write buffers and persists the
// mapping tables into the checkpoint region. It returns the number of
// checkpoint pages written. Checkpoints are only available when the store
// was opened with Options.CheckpointBlocks > 0.
//
// WriteCheckpoint is safe to call concurrently with reads and writes: the
// serialized tables are captured under the device lock, so they describe a
// flash-consistent state (differentials buffered after the flush are simply
// not part of the checkpoint, exactly like differentials lost to a crash).
func (s *Store) WriteCheckpoint() (int, error) {
	if s.ckpt == nil {
		return 0, errors.New("core: store opened without a checkpoint region")
	}
	// A checkpoint must capture a flash-consistent state: flush first so
	// the tables match what is durable.
	if err := s.Flush(); err != nil {
		return 0, err
	}
	// The exclusive flash lock quiesces every channel at once, so the
	// serialized tables describe one flash-consistent cut across channels.
	s.flashMu.Lock()
	defer s.flashMu.Unlock()
	s.ckpt.nextID++
	payload := s.serializeCheckpoint(s.ckpt.nextID)
	p := s.params

	half := s.ckpt.blocks[:len(s.ckpt.blocks)/2]
	if s.ckpt.useHighHalf {
		half = s.ckpt.blocks[len(s.ckpt.blocks)/2:]
	}
	// Erase the target half (the previous checkpoint lives in the other
	// half and survives a crash during this write).
	for _, b := range half {
		if err := s.dev.Erase(b); err != nil {
			return 0, err
		}
	}
	chunkData := make([]byte, p.DataSize)
	chunks := 0
	for off := 0; off < len(payload); off += p.DataSize {
		n := copy(chunkData, payload[off:])
		for i := n; i < p.DataSize; i++ {
			chunkData[i] = 0xFF
		}
		blk := half[chunks/p.PagesPerBlock]
		pg := chunks % p.PagesPerBlock
		// Safe under the exclusive flash lock: no channel path can be
		// using channel 0's spare scratch concurrently.
		spareBuf := s.chans[0].spareBuf
		ftl.EncodeHeaderInto(ftl.Header{
			Type: ftl.TypeCheckpoint,
			PID:  uint32(chunks),
			TS:   s.ckpt.nextID,
		}, spareBuf)
		s.seal(chunkData, spareBuf)
		if err := s.dev.Program(p.PPNOf(blk, pg), chunkData, spareBuf); err != nil {
			return chunks, fmt.Errorf("core: writing checkpoint chunk %d: %w", chunks, err)
		}
		chunks++
	}
	s.ckpt.useHighHalf = !s.ckpt.useHighHalf
	return chunks, nil
}

// foundCkpt is one candidate checkpoint discovered in the region.
type foundCkpt struct {
	id     uint64
	chunks map[int][]byte
	total  int
	blk    int // block holding chunk 0 (identifies the half)
}

// noteLatest positions the region cursor after recovery: the next
// checkpoint id follows maxID, and the next write targets the half that
// does NOT hold the latest complete checkpoint.
func (r *ckptRegion) noteLatest(maxID uint64, latestBlk int) {
	if maxID > r.nextID {
		r.nextID = maxID
	}
	inHigh := false
	for _, b := range r.blocks[len(r.blocks)/2:] {
		if b == latestBlk {
			inHigh = true
			break
		}
	}
	r.useHighHalf = !inHigh
}

// RecoverWithCheckpoint rebuilds a PDL store using the newest complete
// checkpoint in the region, scanning in full only the blocks whose
// sequence numbers changed since that checkpoint. It fails with
// ErrNoCheckpoint if the region holds no complete checkpoint (use Recover
// for the full-scan path).
func RecoverWithCheckpoint(dev flash.Device, numPages int, opts Options) (*Store, error) {
	if opts.CheckpointBlocks == 0 {
		return nil, errors.New("core: RecoverWithCheckpoint needs Options.CheckpointBlocks")
	}
	s, err := New(dev, numPages, opts)
	if err != nil {
		return nil, err
	}
	p := dev.Params()

	// Step 1: find the newest complete checkpoint in the region.
	best, err := s.findCheckpoint()
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 0, best.total*p.DataSize)
	for i := 0; i < best.total; i++ {
		payload = append(payload, best.chunks[i]...)
	}
	blockSeq, blockState, err := s.loadCheckpoint(payload)
	if err != nil {
		return nil, err
	}
	s.ckpt.noteLatest(best.id, best.blk)

	// Step 2: classify blocks by reading one spare per block.
	spare := make([]byte, p.SpareSize)
	data := make([]byte, p.DataSize)
	var dirty []int
	for b := 0; b < p.NumBlocks; b++ {
		if s.isCkptBlock(b) {
			continue
		}
		if err := s.scanRead(readRecover, p.PPNOf(b, 0), data, spare); err != nil {
			return nil, err
		}
		h := ftl.DecodeHeader(spare)
		// A first-page header that fails its checksum cannot vouch for the
		// block's sequence number: treat the block as dirty so the full
		// scan judges every page individually.
		headerOK := !s.integ.verify || h.Type == ftl.TypeFree ||
			ftl.VerifyHeaderChecksum(spare, p.DataSize)
		switch {
		case blockState[b] == ckptStateFull && h.Seq == blockSeq[b] && h.Type != ftl.TypeFree && headerOK:
			// Untouched since the checkpoint: trust its tables.
			s.alloc.AdoptFullBlock(b)
			s.alloc.AdoptCounts(b, int(blockWritten(payload, s.numPages, b)),
				int(blockObsolete(payload, s.numPages, b)))
			s.alloc.AdoptSeq(b, blockSeq[b])
		case h.Type == ftl.TypeFree:
			// First page unwritten: with sequential allocation the block
			// is erased — unless a torn program left data behind.
			if allErased(data) {
				s.invalidateEntriesIn(b)
				continue
			}
			dirty = append(dirty, b)
			s.invalidateEntriesIn(b)
		default:
			dirty = append(dirty, b)
			s.invalidateEntriesIn(b)
		}
	}

	// Step 3: scan the dirty blocks in full, arbitrating with time stamps
	// exactly as the full-scan recovery does.
	if err := s.scanBlocks(dirty); err != nil {
		return nil, err
	}

	// Step 4: rebuild the derived tables.
	s.rebuildDerived()
	return s, nil
}

// findCheckpoint scans the region and returns the newest complete
// checkpoint.
func (s *Store) findCheckpoint() (*foundCkpt, error) {
	p := s.params
	found := map[uint64]*foundCkpt{}
	spare := make([]byte, p.SpareSize)
	for _, b := range s.ckpt.blocks {
		for pg := 0; pg < p.PagesPerBlock; pg++ {
			ppn := p.PPNOf(b, pg)
			data := make([]byte, p.DataSize)
			if err := s.scanRead(readRecover, ppn, data, spare); err != nil {
				return nil, err
			}
			h := ftl.DecodeHeader(spare)
			if h.Type != ftl.TypeCheckpoint || h.Obsolete {
				continue
			}
			if s.integ.verify {
				// A chunk that fails its header checksum or holds
				// uncorrectable data is dropped, demoting its checkpoint to
				// incomplete: recovery falls back to the previous complete
				// checkpoint (other half) or the full scan — never a load
				// of corrupt tables.
				if !ftl.VerifyHeaderChecksum(spare, p.DataSize) {
					s.itel.headerChecksumFailures.Add(1)
					continue
				}
				if len(s.verifyData(data, spare)) > 0 {
					s.itel.unrecoverablePages.Add(1)
					continue
				}
			}
			fc := found[h.TS]
			if fc == nil {
				fc = &foundCkpt{id: h.TS, chunks: map[int][]byte{}}
				found[h.TS] = fc
			}
			fc.chunks[int(h.PID)] = data
			if h.PID == 0 && binary.LittleEndian.Uint32(data) == ckptMagic {
				fc.total = int(binary.LittleEndian.Uint16(data[6:]))
				fc.blk = b
			}
		}
	}
	var best *foundCkpt
	for _, fc := range found {
		if fc.total == 0 || len(fc.chunks) < fc.total {
			continue // incomplete (torn checkpoint write)
		}
		complete := true
		for i := 0; i < fc.total; i++ {
			if fc.chunks[i] == nil {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		if best == nil || fc.id > best.id {
			best = fc
		}
	}
	if best == nil {
		return nil, ErrNoCheckpoint
	}
	return best, nil
}

// loadCheckpoint restores the mapping tables and counters from a payload,
// returning the per-block sequence numbers and states it recorded.
func (s *Store) loadCheckpoint(payload []byte) ([]uint64, []byte, error) {
	p := s.params
	if len(payload) < ckptHdrSize {
		return nil, nil, fmt.Errorf("core: checkpoint payload truncated")
	}
	if binary.LittleEndian.Uint32(payload) != ckptMagic {
		return nil, nil, fmt.Errorf("core: bad checkpoint magic")
	}
	if v := binary.LittleEndian.Uint16(payload[4:]); v != ckptVersion {
		return nil, nil, fmt.Errorf("core: unsupported checkpoint version %d", v)
	}
	s.ts.Store(binary.LittleEndian.Uint64(payload[16:]))
	numPages := int(binary.LittleEndian.Uint32(payload[32:]))
	numBlocks := int(binary.LittleEndian.Uint32(payload[36:]))
	if numPages != s.numPages || numBlocks != p.NumBlocks {
		return nil, nil, fmt.Errorf("core: checkpoint geometry mismatch (%d pages/%d blocks vs %d/%d)",
			numPages, numBlocks, s.numPages, p.NumBlocks)
	}
	want := ckptHdrSize + numPages*ckptPerPID + numBlocks*ckptPerBlock
	if len(payload) < want {
		return nil, nil, fmt.Errorf("core: checkpoint payload %d bytes, want %d", len(payload), want)
	}
	off := ckptHdrSize
	for pid := 0; pid < numPages; pid++ {
		s.mt.ppmt[pid].base = flash.PPN(int32(binary.LittleEndian.Uint32(payload[off:])))
		s.mt.ppmt[pid].dif = flash.PPN(int32(binary.LittleEndian.Uint32(payload[off+4:])))
		s.mt.baseTS[pid] = binary.LittleEndian.Uint64(payload[off+8:])
		s.mt.diffTS[pid] = binary.LittleEndian.Uint64(payload[off+16:])
		s.mt.mode[pid] = payload[off+24]
		off += ckptPerPID
	}
	blockSeq := make([]uint64, numBlocks)
	blockState := make([]byte, numBlocks)
	for b := 0; b < numBlocks; b++ {
		blockSeq[b] = binary.LittleEndian.Uint64(payload[off:])
		blockState[b] = payload[off+12]
		off += ckptPerBlock
	}
	return blockSeq, blockState, nil
}

// blockWritten and blockObsolete read one block's bookkeeping directly out
// of the payload.
func blockWritten(payload []byte, numPages, b int) uint16 {
	off := ckptHdrSize + numPages*ckptPerPID + b*ckptPerBlock
	return binary.LittleEndian.Uint16(payload[off+8:])
}

func blockObsolete(payload []byte, numPages, b int) uint16 {
	off := ckptHdrSize + numPages*ckptPerPID + b*ckptPerBlock
	return binary.LittleEndian.Uint16(payload[off+10:])
}

// invalidateEntriesIn drops mapping entries that point into a block whose
// checkpointed contents are gone or about to be rescanned; the rescue copy
// (if any) is found by the dirty-block scan.
func (s *Store) invalidateEntriesIn(b int) {
	p := s.params
	lo := flash.PPN(b * p.PagesPerBlock)
	hi := lo + flash.PPN(p.PagesPerBlock)
	for pid := range s.mt.ppmt {
		if e := &s.mt.ppmt[pid]; e.base >= lo && e.base < hi {
			e.base = flash.NilPPN
			s.mt.baseTS[pid] = 0
			s.mt.mode[pid] = 0
		}
		if e := &s.mt.ppmt[pid]; e.dif >= lo && e.dif < hi {
			e.dif = flash.NilPPN
			s.mt.diffTS[pid] = 0
		}
	}
}

// scannedPage caches what the dirty-block scan learned about one page.
type scannedPage struct {
	hdr   ftl.Header
	torn  bool
	diffs []diff.Differential // decoded contents of a differential page
	// quarantined marks a page that failed integrity verification; it is
	// excluded from arbitration and counted obsolete in phase B.
	quarantined bool
}

// scanBlocks runs the Figure-11 arbitration over the pages of the given
// blocks, merging what it finds into the current tables. Arbitration runs
// first over everything; the allocator's per-block valid/obsolete counts
// are derived afterwards from the final tables, so they can never
// overcount obsolete pages (an overcount could make garbage collection
// skip relocation and destroy live data; an undercount only costs GC
// efficiency).
func (s *Store) scanBlocks(blocks []int) error {
	p := s.params
	spare := make([]byte, p.SpareSize)
	data := make([]byte, p.DataSize)
	cache := make(map[int][]scannedPage, len(blocks))

	// Phase A1: read every dirty page once and arbitrate base pages. Base
	// resolution must finish before any differential is judged — a valid
	// differential in an early block may belong to a base page that is
	// re-adopted only when a later block is scanned.
	for _, b := range blocks {
		pages := make([]scannedPage, p.PagesPerBlock)
		for pg := 0; pg < p.PagesPerBlock; pg++ {
			ppn := p.PPNOf(b, pg)
			// One charged read fetches both areas; the data area is needed
			// for torn-page detection, decoding, and ECC verification.
			if err := s.scanRead(readRecover, ppn, data, spare); err != nil {
				return err
			}
			h := ftl.DecodeHeader(spare)
			pages[pg] = scannedPage{hdr: h}
			if h.Type == ftl.TypeFree {
				pages[pg].torn = !allErased(data)
				continue
			}
			if h.Obsolete {
				continue
			}
			// Quarantine pages that fail verification, as the full-scan
			// recovery does. CAVEAT: unlike the full scan, this path does
			// NOT poison differentials newer than a quarantined base — a
			// corrupt base in one dirty block cannot veto a differential
			// found in another, because blocks are judged independently
			// here. The window is narrow (both pages must postdate the
			// checkpoint) but real; the full-scan Recover closes it.
			if s.integ.verify && h.Type != ftl.TypeCheckpoint &&
				!ftl.VerifyHeaderChecksum(spare, p.DataSize) {
				s.itel.headerChecksumFailures.Add(1)
				pages[pg].quarantined = true
				continue
			}
			switch h.Type {
			case ftl.TypeBase:
				if int(h.PID) >= s.numPages {
					continue
				}
				if s.integ.verify && len(s.verifyData(data, spare)) > 0 {
					s.itel.unrecoverablePages.Add(1)
					pages[pg].quarantined = true
					continue
				}
				if s.mt.ppmt[h.PID].base == flash.NilPPN || h.TS > s.mt.baseTS[h.PID] {
					s.mt.ppmt[h.PID].base = ppn
					s.mt.baseTS[h.PID] = h.TS
					s.mt.mode[h.PID] = h.Mode
				}
			case ftl.TypeDiff:
				if s.integ.verify && len(s.verifyData(data, spare)) > 0 {
					s.itel.unrecoverablePages.Add(1)
					pages[pg].quarantined = true
					continue
				}
				pages[pg].diffs = diffsOf(data)
			}
		}
		cache[b] = pages
	}
	// With bases final, differentials older than their base are dead.
	for pid := range s.mt.ppmt {
		if s.mt.ppmt[pid].dif != flash.NilPPN && s.mt.baseTS[pid] >= s.mt.diffTS[pid] {
			s.mt.ppmt[pid].dif = flash.NilPPN
			s.mt.diffTS[pid] = 0
		}
	}
	// Phase A2: arbitrate differentials.
	for _, b := range blocks {
		for pg, sp := range cache[b] {
			if sp.hdr.Type != ftl.TypeDiff || sp.hdr.Obsolete {
				continue
			}
			ppn := p.PPNOf(b, pg)
			for _, d := range sp.diffs {
				if int(d.PID) >= s.numPages {
					continue
				}
				if s.mt.ppmt[d.PID].base == flash.NilPPN || d.TS <= s.mt.baseTS[d.PID] {
					continue
				}
				if s.mt.ppmt[d.PID].dif == flash.NilPPN || d.TS > s.mt.diffTS[d.PID] {
					s.mt.ppmt[d.PID].dif = ppn
					s.mt.diffTS[d.PID] = d.TS
				}
			}
		}
	}
	// The adaptive mode invariant, exactly as full-scan Recover applies
	// it: a valid differential is newer than its base, so the
	// differential route won whatever tag the base carries. (A no-op for
	// entries trusted from the checkpoint — the runtime forces mode 0 at
	// every differential commit, and the checkpoint captured that.)
	for pid := range s.mt.ppmt {
		if s.mt.ppmt[pid].dif != flash.NilPPN {
			s.mt.mode[pid] = 0
		}
	}

	// Phase B: with the tables final, derive exact per-block bookkeeping.
	// A diff page is valid iff some pid's entry points at it.
	pointed := make(map[flash.PPN]bool)
	for pid := range s.mt.ppmt {
		if s.mt.ppmt[pid].dif != flash.NilPPN {
			pointed[s.mt.ppmt[pid].dif] = true
		}
	}
	for _, b := range blocks {
		written, obsolete := 0, 0
		var blockSeq uint64
		for pg, sp := range cache[b] {
			ppn := p.PPNOf(b, pg)
			h := sp.hdr
			if h.Type == ftl.TypeFree {
				if sp.torn {
					written++
					obsolete++
				}
				continue
			}
			written++
			if h.Seq > blockSeq {
				blockSeq = h.Seq
			}
			valid := false
			switch h.Type {
			case ftl.TypeBase:
				valid = !h.Obsolete && int(h.PID) < s.numPages &&
					s.mt.ppmt[h.PID].base == ppn
			case ftl.TypeDiff:
				valid = !h.Obsolete && pointed[ppn]
			}
			if !valid {
				obsolete++
			}
		}
		if written > 0 {
			s.alloc.AdoptFullBlock(b)
			s.alloc.AdoptCounts(b, written, obsolete)
			if blockSeq > 0 {
				s.alloc.AdoptSeq(b, blockSeq)
			}
		}
	}
	return nil
}

// rebuildDerived reconstructs reverseBase and vdct from the mapping table.
func (s *Store) rebuildDerived() {
	maxTS := s.ts.Load()
	for pid := range s.mt.ppmt {
		if s.mt.ppmt[pid].base != flash.NilPPN {
			s.mt.reverseBase[s.mt.ppmt[pid].base] = uint32(pid)
		}
		if s.mt.ppmt[pid].dif != flash.NilPPN {
			s.mt.vdct[s.mt.ppmt[pid].dif]++
		}
		if s.mt.baseTS[pid] > maxTS {
			maxTS = s.mt.baseTS[pid]
		}
		if s.mt.diffTS[pid] > maxTS {
			maxTS = s.mt.diffTS[pid]
		}
	}
	s.ts.Store(maxTS)
}
