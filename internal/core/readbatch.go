package core

import (
	"bytes"
	"fmt"
	"sort"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

var _ ftl.BatchReader = (*Store)(nil)

// pageRead is one logical page being recreated (PDL_Reading, Figure 9):
// the pid, the mapping snapshot e at version v the current attempt reads
// against, the caller's buffer — holding the base page image once it is
// read — and the base page's uncorrectable sectors (nil when clean).
type pageRead struct {
	pid uint32
	e   pageEntry
	v   uint64
	buf []byte
	bad []int
}

// resolveDiff finds the differential of r.pid without touching flash, given
// its base image in r.buf: the shard write buffer first, then the
// differential-page cache. It returns with r.buf complete (need is
// NilPPN), or asks for a retry because the mapping moved, or names the
// differential page need that has to be read and handed to applyFromPage.
// The shard lock the caller holds (shared or exclusive) keeps the write
// buffer stable: flushes take it exclusively.
//
//pdlvet:holds shard
func (s *Store) resolveDiff(sh *shard, r *pageRead) (need flash.PPN, retry bool, err error) {
	if d, ok := sh.dwb.get(r.pid); ok {
		return flash.NilPPN, false, s.applyDiff(r, d, false)
	}
	if r.e.dif == flash.NilPPN {
		if len(r.bad) > 0 {
			return flash.NilPPN, false, s.corruptBase(r)
		}
		return flash.NilPPN, false, nil // no differential page; the base page is current
	}
	// A cache hit saves the second flash read. The stability re-check pins
	// the hit to the snapshot — a passing check proves r.e.dif is still
	// pid's differential page, and the coherence protocol (see diffCache)
	// guarantees a present entry always matches its PPN's current content.
	img, ok := s.dcache.get(r.e.dif)
	if !ok {
		return r.e.dif, false, nil
	}
	if !s.mt.stable(r.pid, r.v) {
		return flash.NilPPN, true, nil
	}
	s.rtel.diffCacheHits.Add(1)
	return flash.NilPPN, false, s.applyFromPage(img, r)
}

// cachePage caches a verified differential page image — the page's other
// records belong to other (likely hot) pids — as a copy of its used record
// prefix; page itself is a pooled scratch. The insert is fenced by gen,
// taken before the flash read, so the image of a page that died mid-flight
// is dropped. A no-op with the cache off.
func (s *Store) cachePage(ppn flash.PPN, page []byte, gen uint64) {
	if s.dcache == nil {
		return
	}
	s.rtel.diffCacheMisses.Add(1)
	s.dcache.put(ppn, bytes.Clone(page[:diff.UsedPrefix(page)]), gen)
}

// applyFromPage merges r.pid's newest differential onto r.buf straight from
// the wire form of its differential page — a freshly read page or a cached
// image alike — so no record is decoded or copied. Only a corrupt base
// decodes the one record, because healing needs its ranges. A stable
// mapping that points at a page without a record for pid is a broken
// invariant, reported as corruption.
//
//pdlvet:holds shard
func (s *Store) applyFromPage(page []byte, r *pageRead) error {
	rec, ok := diff.FindIn(page, r.pid)
	if !ok {
		return fmt.Errorf("core: differential of pid %d missing from differential page %d", r.pid, r.e.dif)
	}
	if len(r.bad) == 0 {
		return diff.ApplyRecord(rec, r.buf)
	}
	d, _, err := diff.Decode(rec)
	if err != nil {
		return err
	}
	return s.applyDiff(r, d, true)
}

// applyDiff merges differential d onto the base image in r.buf — and is
// where an uncorrectably corrupt base page heals (the decision tree in
// integrity.go): d is the complete delta against the lost base, so it
// either overwrites every corrupt byte or the page is unrecoverable.
// flushed tells where d came from. A flushed differential makes r.buf the
// exact current logical page (no buffered one exists), so the heal is made
// durable: the merged image is committed as a new base page with a fresh
// time stamp, pinned to the version the read saw — a concurrent GC
// relocation loses nothing (the heal is simply redone by the next read) —
// and a failure to commit is deliberately swallowed: the read being served
// is already correct, and a full flash is no reason to fail it. A buffered
// differential heals only this read: no durable base can be written while
// the write buffer's newest truth is a delta against the lost one.
//
//pdlvet:holds shard
func (s *Store) applyDiff(r *pageRead, d diff.Differential, flushed bool) error {
	if len(r.bad) > 0 && !coversSectors(d, r.bad, s.params.DataSize) {
		return s.corruptBase(r)
	}
	if err := d.Apply(r.buf); err != nil || len(r.bad) == 0 {
		return err
	}
	if flushed {
		v := r.v
		_, _ = s.commit([]pendingOp{{ts: s.nextTS(), home: s.homeChannel(s.shardIndex(r.pid)),
			pid: r.pid, data: r.buf, mode: s.mt.modeOf(r.pid), pin: &v}})
	}
	s.itel.pagesHealed.Add(1)
	return nil
}

// corruptBase and corruptDiff are the integrity contract's terminal case:
// uncorrectable corruption with no surviving redundant source. A corrupt
// differential page has none left by construction — the write buffer and
// the page cache were consulted before the flash read — and with the
// base corrupt too the failure is no longer single-page.
func (s *Store) corruptBase(r *pageRead) error {
	s.itel.unrecoverablePages.Add(1)
	return &ftl.PageError{PID: r.pid, PPN: r.e.base, Kind: ftl.CorruptBase}
}

func (s *Store) corruptDiff(r *pageRead) error {
	if len(r.bad) > 0 {
		return s.corruptBase(r)
	}
	s.itel.unrecoverablePages.Add(1)
	return &ftl.PageError{PID: r.pid, PPN: r.e.dif, Kind: ftl.CorruptDiff}
}

// ReadBatch recreates a batch of logical pages, filling bufs[i] with the
// content of pids[i] exactly as a loop of ReadPage calls would — but
// batch-first, the mirror image of WriteBatch: the base pages of the whole
// batch are read in one device ReadBatch under one bus grant, and the
// differential pages the batch still needs after resolveDiff are
// deduplicated (one physical read serves every pid whose differential
// lives in the same page) and fetched as a second device batch.
//
// Consistency is ReadPage's: each pid's mapping entry is snapshotted with
// its version, and any pid whose version moved while its flash pages were
// in flight — a garbage-collection relocation or a flush of that pid — is
// retried in the next round against a fresh snapshot; a round only
// re-reads the retried pids. Each returned buffer therefore holds some
// consistent version of its page from during the call, exactly as serial
// ReadPage calls would return. On error the buffer contents are
// unspecified.
func (s *Store) ReadBatch(pids []uint32, bufs [][]byte) error {
	if len(pids) != len(bufs) {
		return fmt.Errorf("core: ReadBatch of %d pids given %d buffers", len(pids), len(bufs))
	}
	switch len(pids) {
	case 0:
		return nil
	case 1:
		return s.ReadPage(pids[0], bufs[0])
	}
	todo := make([]pageRead, len(pids))
	for i, pid := range pids {
		if err := ftl.CheckPID(pid, s.numPages); err != nil {
			return err
		}
		if err := ftl.CheckPageBuf(bufs[i], s.params.DataSize); err != nil {
			return err
		}
		todo[i] = pageRead{pid: pid, buf: bufs[i]}
	}

	// Take the involved shards' read locks in ascending index order (the
	// module-wide shard lock order), so the write buffers stay stable for
	// the whole call and concurrent WriteBatch/Flush cannot deadlock.
	seen := make([]bool, len(s.shards))
	var involved []int
	for _, pid := range pids {
		if si := s.shardIndex(pid); !seen[si] {
			seen[si] = true
			involved = append(involved, si)
		}
	}
	sort.Ints(involved)
	for _, si := range involved {
		s.shards[si].mu.RLock()
	}
	defer func() {
		for _, si := range involved {
			s.shards[si].mu.RUnlock()
		}
	}()

	for round := 0; len(todo) > 0; round++ {
		if round > 0 {
			s.rtel.readRetries.Add(int64(len(todo)))
		}
		var err error
		if todo, err = s.readRound(todo); err != nil {
			return err
		}
	}
	return nil
}

// readRound is one optimistic round of ReadBatch over the pending pids:
// at most two device batches around resolveDiff and applyFromPage. It
// returns the pids whose mapping moved under the round, to be retried
// against a fresh snapshot. Every scratch the round borrows goes back to
// its pool on every way out. The caller holds the shard locks of all pids.
//
//pdlvet:holds shard
func (s *Store) readRound(todo []pageRead) (retry []pageRead, err error) {
	// Step 1: snapshot every pending pid and read all base pages as one
	// device batch, straight into the caller's buffers.
	batch := make([]flash.PageRead, len(todo))
	for k := range todo {
		r := &todo[k]
		r.e, r.v = s.mt.snapshot(r.pid)
		if r.e.base == flash.NilPPN {
			return nil, fmt.Errorf("%w: pid %d", ftl.ErrNotWritten, r.pid)
		}
		batch[k] = flash.PageRead{PPN: r.e.base, Data: r.buf}
	}
	defer s.putVerifySpares(batch)
	if err := s.verifiedReadBatch(batch); err != nil {
		return nil, fmt.Errorf("core: batch-reading %d base pages: %w", len(batch), err)
	}

	// Step 2: resolve each pid's differential; whatever still needs
	// flash is grouped by differential page so each page is read once.
	gen := s.dcache.genSnapshot()
	difFor := make(map[flash.PPN][]pageRead)
	var dbatch []flash.PageRead
	defer func() {
		s.putVerifySpares(dbatch)
		for _, pr := range dbatch {
			s.putPage(pr.Data)
		}
	}()
	for k, r := range todo {
		if !s.mt.stable(r.pid, r.v) {
			retry = append(retry, r)
			continue
		}
		r.bad = s.verifyRead(batch[k])
		need, again, err := s.resolveDiff(s.shardOf(r.pid), &r)
		switch {
		case err != nil:
			return nil, err
		case again:
			retry = append(retry, r)
		case need != flash.NilPPN:
			if difFor[need] == nil {
				dbatch = append(dbatch, flash.PageRead{PPN: need, Data: s.getPage()})
			}
			difFor[need] = append(difFor[need], r)
		}
	}

	// Step 3: one device batch for the differential pages, then merge.
	if err := s.verifiedReadBatch(dbatch); err != nil {
		return nil, fmt.Errorf("core: batch-reading %d differential pages: %w", len(dbatch), err)
	}
	for _, pr := range dbatch {
		// The first pid still stable proves the bytes read were the live
		// differential page: only then is the page verified (a corrupt
		// image must never reach the cache) and cached, once. That insert
		// is one miss; further pids it serves count as hits, exactly what
		// serial ReadPage calls would report.
		checked := false
		for _, r := range difFor[pr.PPN] {
			if !s.mt.stable(r.pid, r.v) {
				retry = append(retry, r)
				continue
			}
			if !checked {
				checked = true
				if len(s.verifyRead(pr)) > 0 {
					return nil, s.corruptDiff(&r)
				}
				s.cachePage(pr.PPN, pr.Data, gen)
			} else if s.dcache != nil {
				s.rtel.diffCacheHits.Add(1)
			}
			if err := s.applyFromPage(pr.Data, &r); err != nil {
				return nil, err
			}
		}
	}
	return retry, nil
}
