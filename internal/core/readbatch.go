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
// decoded-differential cache. It returns with r.buf complete (need is
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
	// A cache hit saves the second flash read and the decode. The stability
	// re-check pins the hit to the snapshot — a passing check proves r.e.dif
	// is still pid's differential page, and the coherence protocol (see
	// diffCache) guarantees a present entry always matches its PPN's
	// current content.
	recs, ok := s.dcache.get(r.e.dif)
	if !ok {
		return r.e.dif, false, nil
	}
	if !s.mt.stable(r.pid, r.v) {
		return flash.NilPPN, true, nil
	}
	s.rtel.diffCacheHits.Add(1)
	return flash.NilPPN, false, s.applyFromPage(recs, nil, r)
}

// decodePage decodes a verified differential page image once and caches
// the records — the page's other records belong to other (likely hot)
// pids. The insert is fenced by gen, taken before the flash read, so a
// decode of a page that died mid-flight is dropped. With the cache off it
// returns nil and applyFromPage works on the wire form.
func (s *Store) decodePage(ppn flash.PPN, page []byte, gen uint64) []diff.Differential {
	if s.dcache == nil {
		return nil
	}
	s.rtel.diffCacheMisses.Add(1)
	recs := diff.DecodeAll(page) // decoded ranges are copies; page can be recycled
	s.dcache.put(ppn, recs, gen)
	return recs
}

// applyFromPage merges r.pid's newest differential from its differential
// page onto r.buf: from the decoded records recs, or — cache off, base
// clean — by scanning page for pid's record and applying it straight from
// the wire form, so no record is decoded or copied. A stable mapping that
// points at a page without a record for pid is a broken invariant,
// reported as corruption.
//
//pdlvet:holds shard
func (s *Store) applyFromPage(recs []diff.Differential, page []byte, r *pageRead) error {
	if recs == nil && len(r.bad) > 0 {
		recs = diff.DecodeAll(page) // healing needs the ranges
	}
	if recs != nil {
		if d, ok := newestFor(recs, r.pid); ok {
			return s.applyDiff(r, d, true)
		}
	} else if rec, ok := diff.FindIn(page, r.pid); ok {
		return diff.ApplyRecord(rec, r.buf)
	}
	return fmt.Errorf("core: differential of pid %d missing from differential page %d", r.pid, r.e.dif)
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
// the decoded cache were consulted before the flash read — and with the
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
		// Step 1: snapshot every pending pid and read all base pages as
		// one device batch, straight into the caller's buffers.
		batch := make([]flash.PageRead, len(todo))
		for k := range todo {
			r := &todo[k]
			r.e, r.v = s.mt.snapshot(r.pid)
			if r.e.base == flash.NilPPN {
				return fmt.Errorf("%w: pid %d", ftl.ErrNotWritten, r.pid)
			}
			batch[k] = flash.PageRead{PPN: r.e.base, Data: r.buf}
		}
		if err := s.verifiedReadBatch(batch); err != nil {
			return fmt.Errorf("core: batch-reading %d base pages: %w", len(batch), err)
		}

		// Step 2: resolve each pid's differential; whatever still needs
		// flash is grouped by differential page so each page is read once.
		gen := s.dcache.genSnapshot()
		var retry []pageRead
		difFor := make(map[flash.PPN][]pageRead)
		var dbatch []flash.PageRead
		for k, r := range todo {
			if !s.mt.stable(r.pid, r.v) {
				retry = append(retry, r)
				continue
			}
			r.bad = s.verifyRead(batch[k])
			need, again, err := s.resolveDiff(s.shardOf(r.pid), &r)
			switch {
			case err != nil:
				return err
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
		err := s.verifiedReadBatch(dbatch)
		if err != nil {
			err = fmt.Errorf("core: batch-reading %d differential pages: %w", len(dbatch), err)
		}
		for _, pr := range dbatch {
			// The first pid still stable proves the bytes read were the
			// live differential page: only then is the page verified (the
			// corrupt decode must never reach the cache) and decoded, once.
			// That decode is one miss; further pids it serves count as
			// hits, exactly what serial ReadPage calls would report.
			var recs []diff.Differential
			decoded := false
			for _, r := range difFor[pr.PPN] {
				if err != nil {
					break
				}
				if !s.mt.stable(r.pid, r.v) {
					retry = append(retry, r)
					continue
				}
				if !decoded {
					decoded = true
					if len(s.verifyRead(pr)) > 0 {
						err = s.corruptDiff(&r)
						break
					}
					recs = s.decodePage(pr.PPN, pr.Data, gen)
				} else if recs != nil {
					s.rtel.diffCacheHits.Add(1)
				}
				err = s.applyFromPage(recs, pr.Data, &r)
			}
			s.putPage(pr.Data)
		}
		if err != nil {
			return err
		}
		todo = retry
	}
	return nil
}
