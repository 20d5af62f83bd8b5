package core

import (
	"fmt"
	"sort"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
)

var _ ftl.BatchReader = (*Store)(nil)

// pageRead is one logical page being recreated (PDL_Reading, Figure 9):
// the pid, the mapping snapshot the current attempt reads against — entry e,
// the time stamps baseTS of its base page and ts of its differential, at
// version v — the caller's buffer, holding the base page image once it is
// read, and the base page's uncorrectable sectors (nil when clean).
type pageRead struct {
	pid           uint32
	e             pageEntry
	baseTS, ts, v uint64
	buf           []byte
	bad           []int
}

// snapshot takes the mapping snapshot of one attempt.
func (r *pageRead) snapshot(mt *mapTable) {
	r.e, r.baseTS, r.ts, r.v = mt.snapshot(r.pid)
}

// keepBaseImage keeps r.buf, the base image of r.pid as it was just read — under
// a mapping that stayed stable, and before any differential is merged onto
// it — for the write that follows the read (see baseImages). A base with
// uncorrectable sectors is not kept: the write that finds none reads the page
// itself and heals it by overwrite.
func (s *Store) keepBaseImage(r *pageRead) {
	if len(r.bad) == 0 {
		s.bimg.put(r.pid, r.baseTS, r.buf)
	}
}

// resolveDiff finds the differential of r.pid without touching flash, given
// its base image in r.buf: the shard write buffer first, then the
// differential cache. It returns with r.buf complete (need is NilPPN), or
// names the differential page need that has to be read and handed to
// applyFromPage. The shard lock the caller holds (shared or exclusive)
// keeps the write buffer stable: flushes take it exclusively.
//
// A cache hit saves the second flash read and needs no stability re-check:
// the record is named by the time stamp snapshotted with the base page's
// address, and the base image under r.buf was checked against that snapshot
// when it was read, so the two are one version of the page wherever the
// mapping has moved since.
//
//pdlvet:holds shard
func (s *Store) resolveDiff(sh *shard, r *pageRead) (need flash.PPN, err error) {
	if rec, ok := sh.dwb.get(r.pid); ok {
		return flash.NilPPN, s.applyRecord(rec, r, false)
	}
	if r.e.dif == flash.NilPPN {
		if len(r.bad) > 0 {
			return flash.NilPPN, s.corruptBase(r)
		}
		return flash.NilPPN, nil // no differential page; the base page is current
	}
	var hit bool
	if len(r.bad) == 0 {
		hit, err = s.dcache.merge(r.pid, r.ts, r.buf)
	} else if s.dcache != nil {
		// Healing decodes the record and may commit a new base page: on a
		// copy, outside the cache's lock.
		scratch := s.getPage()
		defer s.putPage(scratch)
		var rec []byte
		if rec, hit = s.dcache.copyOut(r.pid, r.ts, scratch[:0]); hit {
			err = s.applyRecord(rec, r, true)
		}
	}
	if !hit {
		return r.e.dif, nil
	}
	s.rtel.diffCacheHits.Add(1)
	return flash.NilPPN, err
}

// applyFromPage merges r.pid's differential onto r.buf straight from the
// wire form of its differential page, verified and read under a mapping
// that stayed stable, and caches the record. A stable mapping that points
// at a page whose newest record for pid is missing, or is not the one the
// mapping's time stamp names, is a broken invariant, reported as corruption.
//
//pdlvet:holds shard
func (s *Store) applyFromPage(page []byte, r *pageRead) error {
	rec, ok := diff.FindIn(page, r.pid)
	if !ok {
		return fmt.Errorf("core: differential of pid %d missing from differential page %d", r.pid, r.e.dif)
	}
	if _, ts := diff.RecordKey(rec); ts != r.ts {
		return fmt.Errorf("core: differential page %d holds time stamp %d for pid %d, the mapping says %d", r.e.dif, ts, r.pid, r.ts)
	}
	s.dcache.putRead(rec)
	return s.applyRecord(rec, r, true)
}

// applyRecord merges rec, r.pid's differential in wire form, onto the base
// image in r.buf: the one merge of the read path, whether rec is still in
// the shard write buffer (flushed false) or came from the differential cache
// or a differential page. It is also where an uncorrectably corrupt base page
// heals (the decision tree in integrity.go), the only place a record is
// decoded: rec is the complete delta against the lost base, so its ranges
// either overwrite every corrupt byte or the page is unrecoverable.
//
// A flushed differential makes r.buf the exact current logical page (no
// buffered one exists), so the heal is made durable: the merged image is
// committed as a new base page with a fresh time stamp, pinned to the version
// the read saw — a concurrent GC relocation loses nothing (the heal is simply
// redone by the next read) — and a failure to commit is deliberately
// swallowed: the read being served is already correct, and a full flash is no
// reason to fail it. A buffered differential heals only this read: no durable
// base can be written while the write buffer's newest truth is a delta
// against the lost one.
//
//pdlvet:holds shard
func (s *Store) applyRecord(rec []byte, r *pageRead, flushed bool) error {
	if len(r.bad) > 0 {
		d, _, err := diff.Decode(rec)
		if err != nil {
			return err
		}
		if !coversSectors(d, r.bad, s.params.DataSize) {
			return s.corruptBase(r)
		}
	}
	if err := diff.ApplyRecord(rec, r.buf); err != nil || len(r.bad) == 0 {
		return err
	}
	if flushed {
		v := r.v
		_, _ = s.commit([]pendingOp{{ts: s.nextTS(), home: s.homeChannel(s.shardIndex(r.pid)),
			pid: r.pid, data: r.buf, pin: &v}})
	}
	s.itel.pagesHealed.Add(1)
	return nil
}

// corruptBase and corruptDiff are the integrity contract's terminal case:
// uncorrectable corruption with no surviving redundant source. A corrupt
// differential page has none left by construction — the write buffer and
// the differential cache were consulted before the flash read — and with
// the base corrupt too the failure is no longer single-page.
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
		r.snapshot(s.mt)
		if r.e.base == flash.NilPPN {
			return nil, fmt.Errorf("%w: pid %d", ftl.ErrNotWritten, r.pid)
		}
		batch[k] = flash.PageRead{PPN: r.e.base, Data: r.buf}
	}
	defer s.putVerifySpares(batch)
	if err := s.verifiedReadBatch(readBase, batch); err != nil {
		return nil, fmt.Errorf("core: batch-reading %d base pages: %w", len(batch), err)
	}

	// Step 2: resolve each pid's differential; whatever still needs
	// flash is grouped by differential page so each page is read once.
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
		s.keepBaseImage(&r)
		need, err := s.resolveDiff(s.shardOf(r.pid), &r)
		switch {
		case err != nil:
			return nil, err
		case need != flash.NilPPN:
			if difFor[need] == nil {
				dbatch = append(dbatch, flash.PageRead{PPN: need, Data: s.getPage()})
			}
			difFor[need] = append(difFor[need], r)
		}
	}

	// Step 3: one device batch for the differential pages, then merge.
	if err := s.verifiedReadBatch(readDiff, dbatch); err != nil {
		return nil, fmt.Errorf("core: batch-reading %d differential pages: %w", len(dbatch), err)
	}
	for _, pr := range dbatch {
		// The first pid still stable proves the bytes read were the live
		// differential page: only then is the page verified (a corrupt
		// record must never reach the cache), once. That flash read is one
		// miss; the further pids it serves count as hits.
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
				if s.dcache != nil {
					s.rtel.diffCacheMisses.Add(1)
				}
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
