package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// The method conformance suite over four option sets: PDL(page size) takes
// differentials up to a whole page, PDL(64B) on the suite's 512-byte pages
// mirrors the paper's PDL(256B) on 2-Kbyte pages (1/8 of the page), and
// neither sharding nor collection off the write path may change what a
// single-threaded caller observes.
func TestConformanceFullPageDiff(t *testing.T) { conformance(t, Options{}) }
func TestConformanceSmallDiff(t *testing.T)    { conformance(t, Options{MaxDifferentialSize: 64}) }
func TestShardedConformance(t *testing.T) {
	conformance(t, Options{MaxDifferentialSize: 64, Shards: 4})
}
func TestBackgroundGCConformance(t *testing.T) {
	conformance(t, Options{MaxDifferentialSize: 64, Shards: 4, BackgroundGC: true})
}

// conformance runs ftltest's method suite on stores opened with opts, each
// closed when t ends.
func conformance(t *testing.T, opts Options) {
	ftltest.RunMethodSuite(t, func(dev flash.Device, numPages int) (ftl.Method, error) {
		s, err := New(dev, numPages, opts)
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { s.Close() })
		return s, nil
	})
}

func TestNewValidation(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(4))
	if _, err := New(chip, 0, Options{}); err == nil {
		t.Error("numPages=0 accepted")
	}
	if _, err := New(chip, chip.Params().NumPages()+1, Options{}); err == nil {
		t.Error("oversized database accepted")
	}
	if _, err := New(chip, 4, Options{MaxDifferentialSize: 4}); err == nil {
		t.Error("MaxDifferentialSize below header size accepted")
	}
	if _, err := New(chip, 4, Options{MaxDifferentialSize: chip.Params().DataSize + 1}); err == nil {
		t.Error("MaxDifferentialSize above page size accepted")
	}
	if _, err := New(chip, 4, Options{Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
}

// TestShardOptionValidation pins down the Options.Shards counts: one shard
// by default over one channel, else the count asked for.
func TestShardOptionValidation(t *testing.T) {
	for _, shards := range []int{0, 6} {
		s, err := New(flash.NewChip(ftltest.SmallParams(8)), 8, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if want := max(shards, 1); s.Shards() != want {
			t.Errorf("Shards %d: %d shards, want %d", shards, s.Shards(), want)
		}
	}
}

// TestBackgroundGCOptionValidation pins down the new option contracts.
func TestBackgroundGCOptionValidation(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	s, err := New(chip, 8, Options{BackgroundGC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.BackgroundGC() {
		t.Error("BackgroundGC() = false on a background-GC store")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The store stays usable after Close (synchronous collection).
	page := make([]byte, chip.Params().DataSize)
	if err := s.WritePage(0, page); err != nil {
		t.Fatalf("write after Close: %v", err)
	}

	chip2 := flash.NewChip(ftltest.SmallParams(8))
	s2, err := New(chip2, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.BackgroundGC() {
		t.Error("BackgroundGC() = true on a synchronous store")
	}
	if got := s2.BackgroundGCStats(); got.Collected != 0 || got.Wakeups != 0 {
		t.Errorf("BackgroundGCStats = %+v on a synchronous store", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close on a synchronous store: %v", err)
	}
}

func TestName(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(4))
	s, err := New(chip, 4, Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "PDL(256B)" {
		t.Errorf("Name = %q", s.Name())
	}
	s2, err := New(chip, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() != "PDL(512B)" { // suite pages are 512 bytes
		t.Errorf("Name = %q", s2.Name())
	}
}

// loadStore builds a store with numPages loaded pages of deterministic
// content, returning the shadow.
func loadStore(t *testing.T, numBlocks, numPages, maxDiff int) (*Store, *flash.Chip, [][]byte) {
	t.Helper()
	chip := flash.NewChip(ftltest.SmallParams(numBlocks))
	s, err := New(chip, numPages, Options{MaxDifferentialSize: maxDiff})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	shadow := make([][]byte, numPages)
	rng := rand.New(rand.NewSource(1))
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	return s, chip, shadow
}

// bufferedRecord returns a copy of the record pid's shard buffer holds for
// it, if any.
func bufferedRecord(s *Store, pid uint32) ([]byte, bool) {
	sh := s.shardOf(pid)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.dwb.get(pid)
	return bytes.Clone(rec), ok
}

func TestUpdateCostOneReadBuffered(t *testing.T) {
	// The writing-difference-only principle: reflecting a lightly updated
	// page costs exactly one read (of the base page, to compute the
	// differential) and zero writes while the write buffer has room.
	s, chip, shadow := loadStore(t, 16, 16, 0)
	shadow[3][10] ^= 0xFF
	before := chip.Stats()
	if err := s.WritePage(3, shadow[3]); err != nil {
		t.Fatal(err)
	}
	d := chip.Stats().Sub(before)
	if d.Reads != 1 || d.Writes != 0 || d.Erases != 0 {
		t.Errorf("buffered update cost = %+v, want exactly 1 read", d)
	}
	if s.WriteBufferLen() != 1 {
		t.Errorf("WriteBufferLen = %d, want 1", s.WriteBufferLen())
	}
}

func TestAtMostOnePageWriting(t *testing.T) {
	// Updating the same page in memory many times and reflecting it once
	// writes at most one physical page, no matter how many updates
	// occurred: the differential is computed once, at reflection time.
	s, chip, shadow := loadStore(t, 16, 16, 0)
	for i := 0; i < 50; i++ {
		shadow[5][i*8] ^= 0xA5 // many updates in memory
	}
	before := chip.Stats()
	if err := s.WritePage(5, shadow[5]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	d := chip.Stats().Sub(before)
	// 1 read (base) + 1 write (differential page). No erases.
	if d.Writes != 1 || d.Erases != 0 {
		t.Errorf("reflect cost = %+v, want 1 write (the differential page)", d)
	}
}

func TestAtMostTwoPageReading(t *testing.T) {
	// Recreating a logical page reads at most two physical pages.
	s, chip, shadow := loadStore(t, 16, 16, 0)
	// Page with no differential: one read.
	buf := make([]byte, chip.Params().DataSize)
	before := chip.Stats()
	if err := s.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if d := chip.Stats().Sub(before); d.Reads != 1 {
		t.Errorf("clean page read cost = %+v, want 1 read", d)
	}
	// Page with a flushed differential: two reads, or one for the store
	// whose flush left the record in its differential cache.
	shadow[2][0] ^= 1
	if err := s.WritePage(2, shadow[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		store *Store
		reads int64
	}{{coldStore(t, chip, 16, Options{}), 2}, {s, 1}} {
		before = chip.Stats()
		if err := c.store.ReadPage(2, buf); err != nil {
			t.Fatal(err)
		}
		if d := chip.Stats().Sub(before); d.Reads != c.reads {
			t.Errorf("diffed page read cost = %+v, want %d reads", d, c.reads)
		}
		if !bytes.Equal(buf, shadow[2]) {
			t.Error("content mismatch after merge")
		}
	}
	// Page whose differential is still in the write buffer: one read.
	shadow[4][9] ^= 1
	if err := s.WritePage(4, shadow[4]); err != nil {
		t.Fatal(err)
	}
	before = chip.Stats()
	if err := s.ReadPage(4, buf); err != nil {
		t.Fatal(err)
	}
	if d := chip.Stats().Sub(before); d.Reads != 1 {
		t.Errorf("buffered-diff page read cost = %+v, want 1 read", d)
	}
	if !bytes.Equal(buf, shadow[4]) {
		t.Error("content mismatch with buffered differential")
	}
}

func TestCase3LargeDiffBecomesBasePage(t *testing.T) {
	// A differential larger than Max_Differential_Size is discarded and
	// the logical page itself is written as a new base page (Case 3);
	// after that the page has no differential page.
	s, chip, shadow := loadStore(t, 16, 16, 64)
	rng := rand.New(rand.NewSource(9))
	rng.Read(shadow[7]) // rewrite the whole page: diff >> 64 bytes
	before := chip.Stats()
	if err := s.WritePage(7, shadow[7]); err != nil {
		t.Fatal(err)
	}
	d := chip.Stats().Sub(before)
	// 1 read (base) + 1 write (new base). The old base page is retired in
	// the allocator's counters, where the paper programs its obsolete flag.
	if d.Reads != 1 || d.Writes != 1 {
		t.Errorf("case-3 cost = %+v, want 1 read + 1 write", d)
	}
	buf := make([]byte, chip.Params().DataSize)
	before = chip.Stats()
	if err := s.ReadPage(7, buf); err != nil {
		t.Fatal(err)
	}
	if rd := chip.Stats().Sub(before).Reads; rd != 1 {
		t.Errorf("read after case 3 = %d reads, want 1 (no differential page)", rd)
	}
	if !bytes.Equal(buf, shadow[7]) {
		t.Error("content mismatch after case 3")
	}
}

// TestBoundDecidesBeforeBufferRoom holds the order of PDL_Writing's cases:
// with an empty write buffer, which has room for it, a differential over
// Max_Differential_Size is still Case 3 and never reaches a differential
// page, on WritePage and WriteBatch alike; one within the bound buffers
// (Case 1).
func TestBoundDecidesBeforeBufferRoom(t *testing.T) {
	chip := flash.NewChip(flash.ScaledParams(16))
	s, err := New(chip, 8, Options{MaxDifferentialSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	shadow := make([][]byte, 8)
	rng := rand.New(rand.NewSource(3))
	for pid := range shadow {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	// change returns pid's page with a run of bytes flipped whose
	// differential encodes to want bytes: a run takes one range header per
	// 255 bytes, two for the 279 bytes of a 300-byte record.
	change := func(pid uint32, want int) []byte {
		t.Helper()
		page := bytes.Clone(shadow[pid])
		n := want - diff.HeaderSize - diff.RangeOverhead
		if n > 255 {
			n -= diff.RangeOverhead
		}
		for i := 0; i < n; i++ {
			page[100+i] ^= 0xFF
		}
		d, err := diff.Compute(pid, 1, shadow[pid], page)
		if err != nil || d.EncodedSize() != want {
			t.Fatalf("pid %d: a %d-byte differential, want %d (%v)", pid, d.EncodedSize(), want, err)
		}
		shadow[pid] = page
		return page
	}
	check := func(what string, bases, diffs int64, buffered int) {
		t.Helper()
		tel := s.Telemetry()
		if tel.NewBasePages != bases || tel.DiffsWritten != diffs || s.WriteBufferLen() != buffered {
			t.Errorf("%s: %d new base pages, %d differentials written, %d buffered; want %d, %d, %d",
				what, tel.NewBasePages, tel.DiffsWritten, s.WriteBufferLen(), bases, diffs, buffered)
		}
	}
	tel := s.Telemetry()
	bases, diffs := tel.NewBasePages, tel.DiffsWritten
	check("after the load", bases, diffs, 0)

	if err := s.WritePage(1, change(1, 300)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check("a 300-byte differential, flushed", bases+1, diffs, 0)

	if err := s.WritePage(2, change(2, 200)); err != nil {
		t.Fatal(err)
	}
	check("a 200-byte differential", bases+1, diffs, 1)

	batch := []ftl.PageWrite{{PID: 3, Data: change(3, 300)}, {PID: 4, Data: change(4, 200)}}
	if err := s.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	check("a batch of a 300- and a 200-byte differential", bases+2, diffs, 2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check("the two buffered differentials, flushed", bases+2, diffs+2, 0)
	for pid := range shadow {
		mustReadEqual(t, s, uint32(pid), shadow[pid])
	}
}

func TestRewriteInBufferReplacesOldDifferential(t *testing.T) {
	// Step 3 of PDL_Writing: an old differential for the same page is
	// removed from the buffer before the new one is written, so buffer
	// usage does not grow with repeated updates of one page.
	s, _, shadow := loadStore(t, 16, 8, 0)
	shadow[1][0] ^= 1
	if err := s.WritePage(1, shadow[1]); err != nil {
		t.Fatal(err)
	}
	usedAfterOne := s.WriteBufferBytes()
	for i := 0; i < 10; i++ {
		shadow[1][0] ^= 1
		if err := s.WritePage(1, shadow[1]); err != nil {
			t.Fatal(err)
		}
	}
	if s.WriteBufferLen() != 1 {
		t.Errorf("WriteBufferLen = %d, want 1", s.WriteBufferLen())
	}
	if s.WriteBufferBytes() > usedAfterOne {
		t.Errorf("buffer usage grew from %d to %d on same-page rewrites",
			usedAfterOne, s.WriteBufferBytes())
	}
}

func TestDifferentialGrowsAgainstFixedBase(t *testing.T) {
	// The differential is computed against the base page, which stays
	// fixed across reflections; repeated small updates therefore grow the
	// differential (up to Case 3), unlike log-based methods where each log
	// records only the latest change. This drives the PDL(2KB) "half a
	// page on average" behaviour (footnote 16).
	s, chip, shadow := loadStore(t, 16, 8, 0)
	var last int
	for i := 0; i < 4; i++ {
		off := 50 * (i + 1)
		shadow[2][off] ^= 0xFF
		if err := s.WritePage(2, shadow[2]); err != nil {
			t.Fatal(err)
		}
		rec, ok := bufferedRecord(s, 2)
		if !ok {
			t.Fatal("differential not in buffer")
		}
		if len(rec) <= last {
			t.Errorf("iteration %d: differential size %d did not grow past %d",
				i, len(rec), last)
		}
		last = len(rec)
	}
	_ = chip
}

func TestReadOnlyDatabaseReadsLikePageBased(t *testing.T) {
	// Section 4.4: "if a database is used for read-only access, PDL reads
	// only one physical page just like page-based methods".
	s, chip, shadow := loadStore(t, 16, 32, 0)
	buf := make([]byte, chip.Params().DataSize)
	before := chip.Stats()
	for pid := 0; pid < 32; pid++ {
		if err := s.ReadPage(uint32(pid), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d mismatch", pid)
		}
	}
	d := chip.Stats().Sub(before)
	if d.Reads != 32 || d.Writes != 0 {
		t.Errorf("32 clean reads cost %+v, want exactly 32 reads", d)
	}
}

// recordsOn returns the records of the differential page at ppn by pid.
func recordsOn(t *testing.T, chip *flash.Chip, ppn flash.PPN) map[uint32][]byte {
	t.Helper()
	page := make([]byte, chip.Params().DataSize)
	if err := chip.ReadData(ppn, page); err != nil {
		t.Fatal(err)
	}
	out := make(map[uint32][]byte)
	for rec := range diff.Records(page) {
		pid, _ := diff.RecordKey(rec)
		out[pid] = rec
	}
	return out
}

// collectBlock runs garbage collection on channel 0 until block blk is free.
func collectBlock(t *testing.T, s *Store, blk int) {
	t.Helper()
	for i := 0; !s.alloc.BlockStats(blk).Free; i++ {
		collected, err := s.alloc.CollectOnceOn(0)
		if err != nil {
			t.Fatal(err)
		}
		if !collected || i == s.params.NumBlocks {
			t.Fatalf("block %d not collected after %d collections", blk, i)
		}
	}
}

// TestCompactionCopiesLiveRecords holds compaction by copy: the records of a
// victim differential page that are still current arrive in the compacted
// page byte for byte, header and ranges, under the time stamps they were
// written with, and a superseded record does not arrive.
func TestCompactionCopiesLiveRecords(t *testing.T) {
	s, chip, shadow := loadStore(t, 16, 8, 0)
	touch := func(pid uint32, off, n int) {
		t.Helper()
		for i := off; i < off+n; i++ {
			shadow[pid][i] ^= 0x5A
		}
		if err := s.WritePage(pid, shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	// The victim page: three records of three shapes (one range, two ranges,
	// a long range).
	touch(1, 0, 16)
	touch(2, 100, 8)
	touch(2, 300, 8)
	touch(3, 200, 120)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	victim := entryOf(s, 1).dif
	blk := s.params.BlockOf(victim)
	before := recordsOn(t, chip, victim)
	if len(before) != 3 || entryOf(s, 2).dif != victim || entryOf(s, 3).dif != victim {
		t.Fatalf("layout: the victim page %d holds %d records, want those of pids 1, 2 and 3", victim, len(before))
	}
	// Supersede pid 2's record, then fill the open differential block (each
	// flush supersedes the one before) so that the victim scan sees it.
	for i := 0; s.alloc.BlockStats(blk).Written < s.params.PagesPerBlock; i++ {
		touch(2, 400+4*i, 4)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	collectBlock(t, s, blk)

	compacted := entryOf(s, 1).dif
	if compacted == victim || entryOf(s, 3).dif != compacted {
		t.Fatalf("pids 1 and 3 map to differential pages %d and %d, want one new page", compacted, entryOf(s, 3).dif)
	}
	after := recordsOn(t, chip, compacted)
	for _, pid := range []uint32{1, 3} {
		if !bytes.Equal(after[pid], before[pid]) {
			t.Errorf("pid %d: the compacted record differs from the victim's:\n got %x\nwant %x", pid, after[pid], before[pid])
		}
	}
	for pid, rec := range after {
		_, ts := diff.RecordKey(rec)
		if e := s.mt.snapshot(pid); e.dif != compacted || e.diffTS() != ts {
			t.Errorf("the compacted page carries a dead record: pid %d at time stamp %d, the mapping says page %d, time stamp %d", pid, ts, e.dif, e.diffTS())
		}
	}
	for pid := range shadow {
		mustReadEqual(t, s, uint32(pid), shadow[pid])
	}
}

func TestFindDifferentialPicksNewest(t *testing.T) {
	page := make([]byte, 512)
	for i := range page {
		page[i] = 0xFF
	}
	d1 := diff.Differential{PID: 3, TS: 5, Ranges: []diff.Range{{Off: 0, Data: []byte{1}}}}
	d2 := diff.Differential{PID: 3, TS: 9, Ranges: []diff.Range{{Off: 0, Data: []byte{2}}}}
	enc := d1.AppendTo(nil)
	enc = d2.AppendTo(enc)
	copy(page, enc)
	// The read path's one search — over a fresh page or a cached image —
	// must arbitrate to the newest record.
	if _, ok := diff.FindIn(page, 4); ok {
		t.Error("found differential for absent pid")
	}
	rec, ok := diff.FindIn(page, 3)
	if !ok {
		t.Fatal("FindIn missed pid 3")
	}
	out := make([]byte, 512)
	if err := diff.ApplyRecord(rec, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Errorf("FindIn picked byte %d, want the newest record's 2", out[0])
	}
}

func TestReadUnwrittenAndValidation(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	s, err := New(chip, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chip.Params().DataSize)
	if err := s.ReadPage(0, buf); !errors.Is(err, ftl.ErrNotWritten) {
		t.Errorf("unwritten read: %v", err)
	}
	if err := s.ReadPage(99, buf); !errors.Is(err, ftl.ErrPageRange) {
		t.Errorf("out-of-range read: %v", err)
	}
}

// TestUnchangedWriteIsNoOp is the regression test for the empty-differential
// bug: writing a page byte-identical to its base page must not consume
// write-buffer space, and must not dirty the mapping tables on flush.
func TestUnchangedWriteIsNoOp(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	s, err := New(chip, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	page := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(page)
	if err := s.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	// Rewriting the identical content buffers nothing.
	for i := 0; i < 5; i++ {
		if err := s.WritePage(0, page); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.WriteBufferBytes(); got != 0 {
		t.Errorf("WriteBufferBytes = %d after unchanged writes, want 0", got)
	}
	if got := s.WriteBufferLen(); got != 0 {
		t.Errorf("WriteBufferLen = %d after unchanged writes, want 0", got)
	}
	// Flush must not create a differential page or dirty vdct.
	writesBefore := chip.Stats().Writes
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := chip.Stats().Writes - writesBefore; w != 0 {
		t.Errorf("Flush after unchanged writes performed %d flash writes, want 0", w)
	}
	if got := s.ValidDifferentialPages(); got != 0 {
		t.Errorf("ValidDifferentialPages = %d, want 0", got)
	}
	// An unchanged write also drops a pending buffered differential: the
	// base page already equals the logical page.
	page[0] ^= 1
	if err := s.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if s.WriteBufferLen() != 1 {
		t.Fatalf("WriteBufferLen = %d, want 1", s.WriteBufferLen())
	}
	page[0] ^= 1 // back to base content
	if err := s.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if got := s.WriteBufferBytes(); got != 0 {
		t.Errorf("WriteBufferBytes = %d after revert-to-base write, want 0", got)
	}
	buf := make([]byte, size)
	if err := s.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page) {
		t.Error("content mismatch after revert-to-base write")
	}
}

// TestUnchangedWriteSupersedesFlushedDifferential covers the corner the
// naive no-op would get wrong: when a stale differential already sits in a
// differential page on flash, a revert-to-base write must still be made
// durable (as an empty differential with a newer time stamp) so reads and
// crash recovery do not resurrect the stale differential.
func TestUnchangedWriteSupersedesFlushedDifferential(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(8))
	s, err := New(chip, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := chip.Params().DataSize
	base := make([]byte, size)
	rand.New(rand.NewSource(4)).Read(base)
	if err := s.WritePage(3, base); err != nil {
		t.Fatal(err)
	}
	// Change, flush: a differential page now holds the change durably.
	changed := make([]byte, size)
	copy(changed, base)
	changed[100] ^= 0xFF
	if err := s.WritePage(3, changed); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Revert to the exact base content and flush again.
	if err := s.WritePage(3, base); err != nil {
		t.Fatal(err)
	}
	if s.WriteBufferLen() != 1 {
		t.Fatalf("revert write with flushed differential must buffer an empty differential, have %d", s.WriteBufferLen())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if err := s.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, base) {
		t.Error("read after revert returned stale differential content")
	}
	// Crash recovery must agree.
	r, err := Recover(chip, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, base) {
		t.Error("recovery resurrected the superseded differential")
	}
}
