package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

var _ ftl.BatchWriter = (*Store)(nil)

// pendingOp is one physical page program a write step staged: a base page
// (Case 3 of PDL_Writing, an initial load, a heal) or a differential-page
// spill (Case 2, Flush). Staging separates the CPU half of a reflection —
// reading the base page and computing the differential, which a batch runs
// per shard in parallel — from the device half, which commit performs for
// every staged op of a call at once.
type pendingOp struct {
	// idx is the batch position at which a serial loop of WritePage calls
	// would have issued this program; programs are ordered (and mappings
	// committed) by it, which together with the monotone per-index time
	// stamps makes a crash mid-batch recover as a prefix of the batch.
	idx int
	// ts is the header creation time stamp.
	ts uint64
	// home is the home channel of the shard that staged the op; commit
	// picks the actual channel ch from it (the allocator's fall-over
	// policy) and allocates ppn there.
	home, ch int
	ppn      flash.PPN
	// data is the page image to program. For a base page it is pid's
	// logical image and aliases the caller's buffer until programmed; for
	// a spill it is a pooled page, the differential page image itself: what
	// the spill carries is read off it (diff.Records).
	data  []byte
	pid   uint32
	spill bool
	// pin, when set, makes a base-page commit conditional on pid's mapping
	// still being at that version (the read-path heal; see applyRecord).
	pin *uint64
}

// stream names the allocator append point the op's page comes from: a
// spill is a differential page, everything else a foreground base page.
func (op *pendingOp) stream() ftl.Stream {
	if op.spill {
		return ftl.StreamDiff
	}
	return ftl.StreamHot
}

// staged is what a writeStage knows, ahead of the mapping table, about a
// pid an earlier write of the same batch touched: the base image staged
// for it (nil: its base is still the one on flash) and whether a
// differential page will exist for it once the staged ops commit.
type staged struct {
	img []byte
	dif bool
}

// writeStage is the view one run of stageWrite works on: the write buffer
// it mutates — the live shard buffer for a single WritePage, a clone for a
// batch, published only after the batch commits — the programs staged so
// far, and, for a batch, what its earlier writes staged per pid, so later
// writes of the same pid stay serially consistent although nothing has
// reached flash yet. A single write has no later write to inform and
// leaves pend nil.
type writeStage struct {
	buf  *writeBuffer
	home int
	ops  []pendingOp
	pend map[uint32]staged
}

// note records pid's staged state for the later writes of a batch.
func (st *writeStage) note(pid uint32, p staged) {
	if st.pend != nil {
		st.pend[pid] = p
	}
}

// stageBase stages data as pid's new base page. Any buffered differential
// was computed against the base this replaces and goes with it.
func (st *writeStage) stageBase(idx int, ts uint64, pid uint32, data []byte) {
	st.buf.remove(pid)
	st.ops = append(st.ops, pendingOp{idx: idx, ts: ts, home: st.home, pid: pid, data: data})
	st.note(pid, staged{img: data})
}

// stageWrite is the PDL_Writing algorithm (Figure 7) for one logical
// write, the only implementation of it: resolve the base image, create the
// differential by comparison, and store it in st's write buffer, staging —
// not issuing — the differential-page spill (Case 2) or new base page
// (Case 3) the write causes. idx and ts are the write's batch position and
// time stamp; base is a scratch page. The caller holds pid's shard lock and
// commits st.ops.
//
//pdlvet:holds shard
func (s *Store) stageWrite(st *writeStage, idx int, ts uint64, pid uint32, data, base []byte) error {
	known, tracked := st.pend[pid]
	// The one mapping snapshot of the write; step 1 takes another only after
	// a relocation moved the base under its read.
	e, baseTS, _, v := s.mt.snapshot(pid)

	// Step 1: resolve the base image this write diffs against — the one an
	// earlier write of the batch staged, else the one a read has just
	// retained, or RetainBase has had held, under the base time stamp of the
	// snapshot (baseImages: the stamp cannot move under the shard lock, so a
	// hit is the current image wherever the page lives by now), else the base
	// page on flash, read under no channel lock. The versioned snapshot
	// detects a concurrent garbage-collection relocation of the base page
	// (the only mutation another goroutine can make to this pid's entry
	// while we hold its shard lock) and retries; relocation preserves
	// content, so a stable read is always the current image.
	img, difExists := known.img, known.dif
	for img == nil {
		corrupt := false
		switch {
		case e.base == flash.NilPPN: // nothing to read: the initial load below
		case s.bimg.get(pid, baseTS, base):
			s.wtel.writeBaseHits.Add(1)
		default:
			stable, bad, err := s.verifiedReadStable(readWriteBase, e.base, base, pid, v)
			if !stable {
				e, baseTS, _, v = s.mt.snapshot(pid)
				continue
			}
			if err != nil {
				return fmt.Errorf("core: reading base page of pid %d: %w", pid, err)
			}
			corrupt = len(bad) > 0
		}
		if e.base == flash.NilPPN || corrupt || s.mt.mustRebase(pid) {
			// Initial load (only the shard-lock holder creates a pid's base
			// page, so the nil observation cannot be stale) — or an
			// uncorrectably corrupt base page, which a write does not need:
			// data is the complete up-to-date image, so writing it as a new
			// base page heals the pid outright — or a pid recovery brought
			// back behind a quarantined base, whose differentials the next
			// restart would veto.
			if corrupt {
				s.itel.pagesHealed.Add(1)
			}
			st.stageBase(idx, ts, pid, data)
			return nil
		}
		img = base
		if !tracked {
			difExists = e.dif != flash.NilPPN
		}
	}

	// Step 2: create the differential. This is the expensive comparison of
	// two page images; it runs outside every store-level lock.
	d, err := diff.Compute(pid, ts, img, data)
	if err != nil {
		return fmt.Errorf("core: computing differential of pid %d: %w", pid, err)
	}

	// Step 3: write the differential into the differential write buffer.
	st.buf.remove(pid)
	if d.Empty() && !difExists {
		// The page is byte-identical to its base and no differential page
		// exists on flash: the write is a no-op. (If a differential page
		// does exist, the empty differential must still be written so its
		// newer time stamp supersedes the stale one durably. GC never
		// creates or destroys a pid's differential linkage — it only moves
		// it — so the nil observation holds under the shard lock.)
		return nil
	}
	size := d.EncodedSize()
	switch {
	case size <= st.buf.free(): // Case 1
		st.buf.add(d)
	case size <= s.maxDiff: // Case 2
		st.ops = append(st.ops, s.snapshotSpill(st.buf, idx, ts, st.home))
		if st.pend != nil {
			// Committing a differential page links it.
			for sp := range st.buf.index {
				st.pend[sp] = staged{img: st.pend[sp].img, dif: true}
			}
		}
		st.buf.clear()
		st.buf.add(d)
	default: // Case 3
		st.stageBase(idx, ts, pid, data)
	}
	return nil
}

// snapshotSpill stages the current contents of buf as a differential-page
// spill op without mutating buf: the page image is the slab copied into a
// pooled page (recycleSpills returns it). The caller decides when (and
// whether) the buffer itself is cleared.
func (s *Store) snapshotSpill(buf *writeBuffer, idx int, ts uint64, home int) pendingOp {
	op := pendingOp{idx: idx, ts: ts, home: home, spill: true, pid: ftl.NoPID, data: s.getPage()}
	packDiffPage(op.data, buf.slab)
	return op
}

// recycleSpills returns the pooled page images of ops' spills.
func (s *Store) recycleSpills(ops []pendingOp) {
	for _, op := range ops {
		if op.spill {
			s.putPage(op.data)
		}
	}
}

// WriteBatch reflects a batch of logical pages into flash as if WritePage
// had been called for each element in slice order, but batch-first: the
// batch is partitioned by write-buffer shard, each shard runs stageWrite
// over its writes in parallel, and every physical page program the batch
// causes — differential-page spills and new base pages — goes to the
// device in one commit.
//
// Crash consistency is the serial path's: programs are issued in time
// stamp order (time stamps are pre-assigned in batch order), and the
// device contract guarantees a failed or interrupted batch leaves a
// prefix, so recovery after a kill mid-batch reconstructs exactly the
// state of having serially written some prefix of the batch and crashed.
//
// Error semantics: staging works on private copies of the shard write
// buffers, which are swapped in only after the commit succeeds. A staging
// error (a base page read failing mid-shard) stops that shard at the
// failing write — a per-shard prefix — while everything already staged is
// still programmed and committed. An allocation or device error from the
// commit itself applies NOTHING: no mapping is committed and every live
// write buffer is left exactly as before the call, so previously
// acknowledged writes keep reading correctly and the batch can be
// retried; at worst the failed attempt leaked programmed but unreferenced
// flash pages, which the next crash recovery counts obsolete.
func (s *Store) WriteBatch(writes []ftl.PageWrite) error {
	switch len(writes) {
	case 0:
		return nil
	case 1:
		return s.WritePage(writes[0].PID, writes[0].Data)
	}
	for _, w := range writes {
		if err := ftl.CheckPID(w.PID, s.numPages); err != nil {
			return err
		}
		if err := ftl.CheckPageBuf(w.Data, s.params.DataSize); err != nil {
			return err
		}
	}
	s.wtel.logicalWrites.Add(int64(len(writes)))

	// Partition the batch by shard, preserving batch order within each
	// shard (per-pid write order is defined by it), and take the involved
	// shard locks in ascending index order — the lock order that keeps
	// concurrent WriteBatch calls deadlock-free.
	order := make([][]int, len(s.shards))
	var involved []int
	for i, w := range writes {
		si := s.shardIndex(w.PID)
		if order[si] == nil {
			involved = append(involved, si)
		}
		order[si] = append(order[si], i)
	}
	sort.Ints(involved)
	for _, si := range involved {
		s.shards[si].mu.Lock()
	}
	defer func() {
		for _, si := range involved {
			s.shards[si].mu.Unlock()
		}
	}()

	// Reserve a contiguous time stamp range so write i carries tsBase+i+1:
	// batch order and time stamp order coincide no matter how the shards
	// interleave their staging work. The reservation must happen AFTER the
	// shard locks are held — a single write stamps under the pid's shard
	// lock, so any concurrent writer to one of our pids is now ordered
	// after this batch and will draw a strictly greater time stamp;
	// reserving earlier would let such a writer commit a higher TS first
	// and make recovery arbitrate against the live commit order.
	tsBase := s.ts.Add(uint64(len(writes))) - uint64(len(writes))

	// Stage every shard's slice of the batch: the parallel, CPU-bound
	// half, against a private copy of each shard's write buffer, so
	// nothing is visible until the commit lands.
	stages := make([]writeStage, len(involved))
	bufs := make([]writeBuffer, len(involved))
	errs := make([]error, len(involved))
	stage := func(k, si int) {
		bufs[k] = s.shards[si].dwb.clone()
		stages[k] = writeStage{buf: &bufs[k], home: s.homeChannel(si), pend: make(map[uint32]staged)}
		base := s.getPage()
		defer s.putPage(base)
		for _, idx := range order[si] {
			if errs[k] = s.stageWrite(&stages[k], idx, tsBase+uint64(idx)+1, writes[idx].PID, writes[idx].Data, base); errs[k] != nil {
				return
			}
		}
	}
	if len(involved) == 1 {
		stage(0, involved[0])
	} else {
		var wg sync.WaitGroup
		for k, si := range involved {
			wg.Add(1)
			go func(k, si int) {
				defer wg.Done()
				stage(k, si)
			}(k, si)
		}
		wg.Wait()
	}
	var ops []pendingOp
	for k := range stages {
		ops = append(ops, stages[k].ops...)
	}
	defer s.recycleSpills(ops)

	// Program and commit what was staged (even if a shard stopped partway:
	// its staged prefix is still valid), then publish the staged buffers.
	// On failure the live buffers were never touched.
	landed, err := s.commit(ops)
	if landed {
		for k, si := range involved {
			s.shards[si].dwb = bufs[k]
		}
	}
	if err != nil {
		return err
	}
	return errors.Join(errs...)
}

// commit is the device half of every foreground write: it allocates,
// encodes, seals, programs and repoints the staged ops of one call — a
// WritePage's spill or base page, a WriteBatch's or Flush's many, a
// heal's one. Each op goes to the channel the allocator picks for its
// home. The caller holds the involved shard locks.
//
// A channel whose blocks are all fully live has nothing to reclaim and
// answers ErrNoSpace even while a neighbor holds erased blocks —
// PickChannel diverts on free-pool pressure but cannot know that, and it
// happens on small multi-channel geometries. Pages are channel-agnostic,
// so the write follows the space: the exhausted channel's share moves to
// the untried channel with the most erased blocks and the commit runs
// again, until it lands or every channel has refused. Nothing was
// programmed by a refused attempt (allocation precedes every mutation; the
// pages it had allocated on lower channels are counted obsolete), and no
// channel lock is held between attempts, so a one-op commit holds one
// channel lock at a time.
//
// landed reports whether the programs reached the device and their
// mappings are committed — the point after which the caller must treat
// its staged buffer changes as applied. An allocation or program error
// lands nothing; the one error there can be afterwards, programming the
// obsolete flag of a heal that lost its race (discardLostHeal), is returned
// with landed true.
//
//pdlvet:holds shard
func (s *Store) commit(ops []pendingOp) (landed bool, err error) {
	if len(ops) == 0 {
		return true, nil
	}
	slices.SortFunc(ops, func(a, b pendingOp) int { return a.idx - b.idx })
	if invariantsEnabled {
		// Batch order and time stamp order must coincide: recovery
		// arbitrates by TS, so a crash mid-batch only recovers as a
		// prefix of the batch if the programs land in TS order.
		for i := 1; i < len(ops); i++ {
			assertf(ops[i].ts > ops[i-1].ts,
				"batch TS order broken at position %d: ts %d follows %d", i, ops[i].ts, ops[i-1].ts)
		}
	}
	for i := range ops {
		ops[i].ch = s.pickChannel(ops[i].home)
	}
	var refused []bool
	for {
		full, landed, err := s.programOps(ops)
		if landed || s.nchan == 1 || !errors.Is(err, ftl.ErrNoSpace) {
			return landed, err
		}
		if refused == nil {
			refused = make([]bool, s.nchan)
		}
		refused[full] = true
		to := -1
		for ch := range refused {
			if !refused[ch] && (to < 0 || s.alloc.FreeBlocksOn(ch) > s.alloc.FreeBlocksOn(to)) {
				to = ch
			}
		}
		if to < 0 {
			return false, err
		}
		s.wtel.channelFallOvers.Add(1)
		for i := range ops {
			if ops[i].ch == full {
				ops[i].ch = to
			}
		}
	}
}

// programOps runs one attempt of commit against the channels picked in
// ops[i].ch: it takes their locks in ascending index order (the same
// deadlock-freedom argument as the shard locks), allocates every
// channel's pages up front, each from the append point of its kind
// (allocPagesOn collects first if needed, so no GC interleaves an
// allocated-unprogrammed page), programs the ops in idx
// (= time stamp) order — one op with Program, several as one ProgramBatch,
// which a striped device fans out as one concurrent leg per channel — and
// replays the mapping-table commits in the same order. An allocation that
// fails returns before anything is programmed, naming the channel, with the
// pages already allocated on lower channels counted obsolete (they stay
// erased, and victim selection must see them as reclaimable); past
// the program every mapping is committed and every superseded page retired
// in the allocator's counters (NoteObsoleteFrom: no device operation), and
// every record of a spilled page is in the differential cache.
//
// On a single-channel device a crash mid-batch leaves exactly a
// TS-ordered prefix. On a striped device each channel's leg is a prefix
// of that channel's slice (the union-of-prefixes shape flash.Striped
// documents); recovery arbitrates per page by TS, so the recovered state
// is still a serially-explainable subset, and the kill tests assert
// exactly that.
//
//pdlvet:holds shard
func (s *Store) programOps(ops []pendingOp) (full int, landed bool, err error) {
	locked := make([]int, 0, 4) // on the stack for up to four channels
	for i := range ops {
		if !slices.Contains(locked, ops[i].ch) {
			locked = append(locked, ops[i].ch)
		}
	}
	sort.Ints(locked)
	for _, ch := range locked {
		s.chans[ch].mu.Lock()
	}
	defer func() {
		for _, ch := range locked {
			s.chans[ch].mu.Unlock()
		}
	}()
	kinds := make([]ftl.Stream, 0, 8) // on the stack for the usual commit
	for _, ch := range locked {
		kinds = kinds[:0]
		for i := range ops {
			if ops[i].ch == ch {
				kinds = append(kinds, ops[i].stream())
			}
		}
		ppns, err := s.allocPagesOn(ch, kinds)
		if err != nil {
			for i := range ops {
				if ops[i].ch < ch {
					s.alloc.NoteObsolete(ops[i].ppn) // its channel's lock is still held
				}
			}
			return ch, false, err
		}
		for i := range ops {
			if ops[i].ch == ch {
				ops[i].ppn, ppns = ppns[0], ppns[1:]
			}
		}
	}
	if invariantsEnabled {
		// Wherever the channel runs the streams, every page lands in a
		// block of its own: a spill (or a long-lived base page) in a block
		// of hot base pages would put the lifetimes the streams separate
		// back together.
		for i := range ops {
			if op := &ops[i]; s.alloc.StreamsOn(op.ch) {
				blk := s.params.BlockOf(op.ppn)
				assertf(s.alloc.BlockStats(blk).Stream == op.stream(),
					"page of ts %d and stream %d landed in block %d of stream %d on channel %d, which runs the streams",
					op.ts, op.stream(), blk, s.alloc.BlockStats(blk).Stream, op.ch)
			}
		}
	}

	// One op borrows its channel's spare scratch (held under the channel
	// lock); a batch needs every spare alive until the device call.
	spareSize := s.params.SpareSize
	spares := s.chans[ops[0].ch].spareBuf
	if len(ops) > 1 {
		spares = make([]byte, len(ops)*spareSize)
	}
	for i, op := range ops {
		h := ftl.Header{Type: ftl.TypeBase, PID: op.pid, TS: op.ts,
			Seq: s.alloc.SeqOf(s.params.BlockOf(op.ppn))}
		if op.spill {
			h.Type = ftl.TypeDiff
		}
		sp := spares[i*spareSize : (i+1)*spareSize]
		ftl.EncodeHeaderInto(h, sp)
		s.seal(op.data, sp)
	}
	if len(ops) == 1 {
		err = s.dev.Program(ops[0].ppn, ops[0].data, spares)
	} else {
		batch := make([]flash.PageProgram, len(ops))
		for i, op := range ops {
			batch[i] = flash.PageProgram{PPN: op.ppn, Data: op.data, Spare: spares[i*spareSize : (i+1)*spareSize]}
		}
		if err = s.dev.ProgramBatch(batch); err == nil {
			s.wtel.batchWrites.Add(1)
			s.wtel.batchedPages.Add(int64(len(batch)))
		}
	}
	if err != nil {
		return 0, false, fmt.Errorf("core: programming %d pages: %w", len(ops), err)
	}

	for _, op := range ops {
		if op.spill {
			s.dcache.putPage(op.data)
			s.wtel.bufferFlushes.Add(1)
			for rec := range diff.Records(op.data) {
				s.wtel.diffsWritten.Add(1)
				s.wtel.diffBytesWritten.Add(int64(len(rec)))
				pid, ts := diff.RecordKey(rec)
				if old := s.mt.setDiffPage(pid, op.ppn, ts); old != flash.NilPPN {
					s.releaseDiffPage(old, op.ch)
				}
			}
			continue
		}
		old, ok := s.mt.setBasePage(op.pid, op.ppn, op.ts, op.pin)
		if !ok {
			err = errors.Join(err, s.discardLostHeal(op.ppn))
			continue
		}
		s.wtel.newBasePages.Add(1)
		// What the new base page supersedes carries older time stamps than
		// it: retiring it is bookkeeping, not a device operation.
		if old.base != flash.NilPPN {
			s.alloc.NoteObsoleteFrom(old.base, op.ch)
		}
		if old.dif != flash.NilPPN {
			s.releaseDiffPage(old.dif, op.ch)
		}
	}
	return 0, true, err
}

// discardLostHeal retires the page of a pinned commit that lost its race:
// the read-path heal programmed its merged image at ppn, and a garbage
// collection moved the pid's mapping before the commit, so the page is
// unreachable. It is the one page of the store that dies holding the NEWEST
// time stamp of its pid, and so the one page whose obsolete flag is
// programmed: unmarked it would win recovery's arbitration, and a
// differential written after the race — computed against the older base the
// mapping kept — would be replayed onto it. Every other superseded page
// loses to a greater time stamp (or ties with a content-identical twin) and
// is retired in DRAM alone. ppn was allocated on the channel whose lock the
// commit holds.
//
//pdlvet:physicalmark the only dead page that outranks its live successor by time stamp
//pdlvet:holds channel
func (s *Store) discardLostHeal(ppn flash.PPN) error {
	if err := s.alloc.MarkObsolete(ppn); err != nil {
		return fmt.Errorf("core: discarding the lost heal at ppn %d: %w", ppn, err)
	}
	return nil
}

// allocPagesOn hands out one flash page of channel ch per element of kinds
// for one commit under the channel's lock. In synchronous mode it is the
// paper's Alloc (collecting inline whenever the reserve would be
// violated). In background-GC mode the channel's engine is kicked at the
// watermark, and an inline collection (the commit hit the reserve floor
// itself) counts as a backpressure fallback.
//
//pdlvet:holds channel
func (s *Store) allocPagesOn(ch int, kinds []ftl.Stream) ([]flash.PPN, error) {
	ppns, collected, err := s.alloc.AllocBatchOn(ch, kinds)
	if s.gcEng != nil {
		if collected > 0 {
			s.wtel.syncGCFallbacks.Add(1)
			s.gcEng.Kick(ch)
		}
		s.kickEtiquette(ch)
	}
	return ppns, err
}
