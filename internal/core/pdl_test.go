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

func factory(maxDiff int) ftltest.Factory {
	return func(dev flash.Device, numPages int) (ftl.Method, error) {
		return New(dev, numPages, Options{MaxDifferentialSize: maxDiff})
	}
}

func TestConformanceFullPageDiff(t *testing.T) {
	// PDL(page size): differentials up to a whole page.
	ftltest.RunMethodSuite(t, factory(0))
}

func TestConformanceSmallDiff(t *testing.T) {
	// PDL(64B) on the 512-byte suite pages mirrors the paper's PDL(256B)
	// on 2-Kbyte pages (1/8 of the page).
	ftltest.RunMethodSuite(t, factory(64))
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

func TestCase2BufferSpill(t *testing.T) {
	// Filling the write buffer forces one differential-page write (Case 2).
	s, chip, shadow := loadStore(t, 16, 32, 0)
	rng := rand.New(rand.NewSource(2))
	writesBefore := chip.Stats().Writes
	flushed := false
	for pid := 0; pid < 32 && !flushed; pid++ {
		// ~1/3 of each page changed: encoded diff ~ 190 bytes, so the
		// 512-byte buffer fills within a few updates.
		off := rng.Intn(300)
		rng.Read(shadow[pid][off : off+170])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
		if chip.Stats().Writes > writesBefore {
			flushed = true
		}
	}
	if !flushed {
		t.Fatal("write buffer never spilled")
	}
	// Every page still reads back correctly.
	buf := make([]byte, chip.Params().DataSize)
	for pid := 0; pid < 32; pid++ {
		if err := s.ReadPage(uint32(pid), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d mismatch", pid)
		}
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

func TestVDCTObsoletesEmptyDifferentialPages(t *testing.T) {
	// When every differential in a differential page has been superseded,
	// the page is retired (valid differential count reaches zero).
	s, chip, shadow := loadStore(t, 16, 4, 0)
	size := chip.Params().DataSize
	// Update pages 0 and 1 and force a flush: one differential page holds
	// both differentials.
	shadow[0][0] ^= 1
	shadow[1][0] ^= 1
	if err := s.WritePage(0, shadow[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(1, shadow[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.ValidDifferentialPages(); got != 1 {
		t.Fatalf("ValidDifferentialPages = %d, want 1", got)
	}
	// Supersede both differentials via Case 3 (full rewrites).
	rng := rand.New(rand.NewSource(5))
	for pid := uint32(0); pid <= 1; pid++ {
		rng.Read(shadow[pid])
		if err := s.WritePage(pid, shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ValidDifferentialPages(); got != 0 {
		t.Errorf("ValidDifferentialPages = %d, want 0 after superseding", got)
	}
	buf := make([]byte, size)
	for pid := uint32(0); pid <= 1; pid++ {
		if err := s.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d mismatch", pid)
		}
	}
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

func TestGCCompaction(t *testing.T) {
	// Under heavy updates, garbage collection must compact differential
	// pages without losing any logical page content, and the store keeps
	// functioning after many GC rounds.
	params := ftltest.SmallParams(10)
	chip := flash.NewChip(params)
	numPages := 6 * params.PagesPerBlock / 2
	s, err := New(chip, numPages, Options{MaxDifferentialSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	size := params.DataSize
	shadow := make([][]byte, numPages)
	rng := rand.New(rand.NewSource(11))
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		pid := rng.Intn(numPages)
		off := rng.Intn(size - 24)
		rng.Read(shadow[pid][off : off+24])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if s.Allocator().GCRuns() == 0 {
		t.Fatal("GC never ran")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		if err := s.ReadPage(uint32(pid), buf); err != nil {
			t.Fatalf("pid %d: %v", pid, err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d content mismatch after GC churn", pid)
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
	recordsOf := func(ppn flash.PPN) map[uint32][]byte {
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
	before := recordsOf(victim)
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
	for i := 0; !s.alloc.BlockStats(blk).Free; i++ {
		collected, err := s.alloc.CollectOnceOn(0)
		if err != nil {
			t.Fatal(err)
		}
		if !collected || i == s.params.NumBlocks {
			t.Fatalf("block %d not collected after %d collections", blk, i)
		}
	}

	compacted := entryOf(s, 1).dif
	if compacted == victim || entryOf(s, 3).dif != compacted {
		t.Fatalf("pids 1 and 3 map to differential pages %d and %d, want one new page", compacted, entryOf(s, 3).dif)
	}
	after := recordsOf(compacted)
	for _, pid := range []uint32{1, 3} {
		if !bytes.Equal(after[pid], before[pid]) {
			t.Errorf("pid %d: the compacted record differs from the victim's:\n got %x\nwant %x", pid, after[pid], before[pid])
		}
	}
	for pid, rec := range after {
		_, ts := diff.RecordKey(rec)
		if dif, cur := s.mt.diffOf(pid); dif != compacted || cur != ts {
			t.Errorf("the compacted page carries a dead record: pid %d at time stamp %d, the mapping says page %d, time stamp %d", pid, ts, dif, cur)
		}
	}
	for pid := range shadow {
		mustReadEqual(t, s, uint32(pid), shadow[pid])
	}
}

func TestEmptyDifferentialIsHarmless(t *testing.T) {
	// Writing back an unchanged page produces an empty differential; it
	// must not corrupt anything.
	s, chip, shadow := loadStore(t, 16, 4, 0)
	if err := s.WritePage(0, shadow[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chip.Params().DataSize)
	if err := s.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, shadow[0]) {
		t.Error("unchanged page corrupted by empty differential")
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
