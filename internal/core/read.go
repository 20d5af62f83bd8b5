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

// ReadPage implements ftl.Method with the PDL_Reading algorithm (Figure 9):
// read the base page, find the differential (write buffer, cached record,
// then the differential page), and merge. The whole read path runs without
// a channel lock: concurrent readers proceed in parallel on the device, and
// a racing garbage-collection relocation or flush is detected by the
// mapping version and retried against a fresh snapshot.
func (s *Store) ReadPage(pid uint32, buf []byte) error {
	if err := ftl.CheckPID(pid, s.numPages); err != nil {
		return err
	}
	if err := ftl.CheckPageBuf(buf, s.params.DataSize); err != nil {
		return err
	}
	sh := s.shardOf(pid)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return s.readRetrying(sh, pid, buf)
}

// ReadBatch implements ftl.BatchReader: it fills bufs[i] with the content of
// pids[i] by running ReadPage's attempt on each pid in slice order, under the
// read locks of every shard involved, taken once for the call in ascending
// index order (the module-wide shard lock order, so concurrent WriteBatch and
// Flush calls cannot deadlock against it). Each buffer therefore holds some
// consistent version of its page from during the call, exactly as serial
// ReadPage calls would return. On error the buffer contents are unspecified.
func (s *Store) ReadBatch(pids []uint32, bufs [][]byte) error {
	if len(pids) != len(bufs) {
		return fmt.Errorf("core: ReadBatch of %d pids given %d buffers", len(pids), len(bufs))
	}
	for i, pid := range pids {
		if err := ftl.CheckPID(pid, s.numPages); err != nil {
			return err
		}
		if err := ftl.CheckPageBuf(bufs[i], s.params.DataSize); err != nil {
			return err
		}
	}
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
	for i, pid := range pids {
		if err := s.readRetrying(s.shardOf(pid), pid, bufs[i]); err != nil {
			return err
		}
	}
	if len(pids) > 1 {
		s.rtel.batchReads.Add(1)
		s.rtel.batchedReads.Add(int64(len(pids)))
	}
	return nil
}

// readRetrying recreates pid into buf, retrying readOnce until an attempt
// ends with the mapping unmoved. The caller holds pid's shard lock.
//
//pdlvet:holds shard
func (s *Store) readRetrying(sh *shard, pid uint32, buf []byte) error {
	r := pageRead{pid: pid, buf: buf}
	for {
		retry, err := s.readOnce(sh, &r)
		if !retry {
			return err
		}
		s.rtel.readRetries.Add(1)
	}
}

// readOnce is one optimistic attempt of PDL_Reading: at most two single-page
// device reads around resolveDiff and applyFromPage. retry means the mapping
// moved under the attempt. The caller holds pid's shard lock.
//
//pdlvet:holds shard
func (s *Store) readOnce(sh *shard, r *pageRead) (retry bool, err error) {
	r.snapshot(s.mt)
	if r.e.base == flash.NilPPN {
		return false, fmt.Errorf("%w: pid %d", ftl.ErrNotWritten, r.pid)
	}
	stable, bad, err := s.verifiedReadStable(readBase, r.e.base, r.buf, r.pid, r.v)
	if !stable {
		return true, nil // relocated mid-read; retry on the new mapping
	}
	if err != nil {
		return false, fmt.Errorf("core: reading base page of pid %d: %w", r.pid, err)
	}
	r.bad = bad
	s.keepBaseImage(r)
	need, err := s.resolveDiff(sh, r)
	if need == flash.NilPPN {
		return false, err
	}
	scratch := s.getPage()
	defer s.putPage(scratch)
	stable, bad, err = s.verifiedReadStable(readDiff, need, scratch, r.pid, r.v)
	if !stable {
		return true, nil // compacted mid-read; retry (base may have moved too)
	}
	if err != nil {
		return false, fmt.Errorf("core: reading differential page of pid %d: %w", r.pid, err)
	}
	if s.dcache != nil {
		s.rtel.diffCacheMisses.Add(1)
	}
	if len(bad) > 0 {
		return false, s.corruptDiff(r)
	}
	return false, s.applyFromPage(scratch, r)
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
