package core

// Tests for the cache-aware read path: the differential cache must turn the
// second flash read of a diff-bearing page into a table lookup, ReadBatch
// must be a loop of ReadPage's attempt. TestHammer holds the read path under
// concurrent batched writes and background garbage collection.

import (
	"bytes"
	"math/rand"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/ftltest"
)

// diffStore builds a store whose pages have flushed differential pages:
// every pid is loaded, given a small update, and flushed, so a cold read
// of any pid costs a base-page read plus a differential-page read.
func diffStore(t *testing.T, opts Options, numBlocks, numPages int) (*Store, *flash.Chip, [][]byte) {
	t.Helper()
	chip := flash.NewChip(ftltest.SmallParams(numBlocks))
	s, err := New(chip, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	size := chip.Params().DataSize
	rng := rand.New(rand.NewSource(63))
	shadow := make([][]byte, numPages)
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	for pid := 0; pid < numPages; pid++ {
		off := rng.Intn(size - 8)
		rng.Read(shadow[pid][off : off+8])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, chip, shadow
}

// coldStore recovers a second store over s's flash: the same mappings, an
// empty differential cache.
func coldStore(t *testing.T, chip *flash.Chip, numPages int, opts Options) *Store {
	t.Helper()
	s, err := Recover(chip, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestDiffCacheCutsSecondRead(t *testing.T) {
	opts := Options{MaxDifferentialSize: 128}
	warm, chip, shadow := diffStore(t, opts, 16, 24)
	buf := make([]byte, chip.Params().DataSize)
	// read reads pid through s and returns what it cost the device.
	read := func(s *Store, pid uint32) int64 {
		t.Helper()
		chip.ResetStats()
		if err := s.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d read returned wrong content", pid)
		}
		return chip.Stats().Reads
	}

	// Write-through: the flush cached every record it programmed, so the
	// store that wrote them never pays the second read.
	if got := read(warm, 3); got != 1 {
		t.Errorf("first read after the flush cost %d device reads, want 1", got)
	}
	if tel := warm.Telemetry(); tel.DiffCacheMisses != 0 || tel.DiffCacheHits != 1 {
		t.Errorf("after the write-through read: hits=%d misses=%d, want 1/0", tel.DiffCacheHits, tel.DiffCacheMisses)
	}

	// Cold reads: base page + differential page = 2 device reads, one miss.
	// The first miss only flags the pid, the second caches its record.
	s := coldStore(t, chip, 24, opts)
	if first, second := read(s, 3), read(s, 3); first != 2 || second != 2 {
		t.Errorf("cold reads cost %d and %d device reads, want 2 and 2", first, second)
	}
	if tel := s.Telemetry(); tel.DiffCacheMisses != 2 || tel.DiffCacheHits != 0 {
		t.Errorf("after the cold reads: hits=%d misses=%d, want 0/2", tel.DiffCacheHits, tel.DiffCacheMisses)
	}
	// Hot read: the record is cached = 1 device read.
	if got := read(s, 3); got != 1 {
		t.Errorf("hot read cost %d device reads, want 1", got)
	}
	if tel := s.Telemetry(); tel.DiffCacheHits != 1 {
		t.Errorf("after hot read: hits=%d, want 1", tel.DiffCacheHits)
	}
	// The misses cached the one record they asked for: a pid sharing the
	// differential page (with one shard, all flushed pids do) pays its own.
	if entryOf(s, 4).dif != entryOf(s, 3).dif {
		t.Fatal("pids 3 and 4 do not share a differential page")
	}
	if a, b, c := read(s, 4), read(s, 4), read(s, 4); a != 2 || b != 2 || c != 1 {
		t.Errorf("sibling reads cost %d, %d, %d device reads, want 2, 2, 1", a, b, c)
	}
	if got := s.DiffCacheLen(); got != 2 {
		t.Errorf("cache holds %d records, want 2", got)
	}
}

func TestDiffCacheOffRestoresTwoReads(t *testing.T) {
	s, chip, shadow := diffStore(t, Options{MaxDifferentialSize: 128, DiffCachePages: DiffCacheOff}, 16, 24)
	if s.DiffCacheEnabled() {
		t.Fatal("DiffCacheOff left the cache enabled")
	}
	buf := make([]byte, chip.Params().DataSize)
	for i := 0; i < 3; i++ {
		chip.ResetStats()
		if err := s.ReadPage(3, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[3]) {
			t.Fatal("read returned wrong content")
		}
		if got := chip.Stats().Reads; got != 2 {
			t.Errorf("read %d cost %d device reads, want 2 (paper semantics)", i, got)
		}
	}
	if tel := s.Telemetry(); tel.DiffCacheHits != 0 || tel.DiffCacheMisses != 0 {
		t.Errorf("cache-off telemetry: hits=%d misses=%d, want 0/0", tel.DiffCacheHits, tel.DiffCacheMisses)
	}
}

// TestReadBatchIsAReadPageLoop holds ReadBatch to its definition: of twin
// stores given the same writes, one read by ReadBatch and the other by a loop
// of ReadPage, return the same bytes for the same device reads and the same
// cache hits and misses, cold, warming and hot, with a pid repeated and one
// differential still in its shard buffer. A batch of two or more pids counts
// one BatchReads and its pids in BatchedReads; a batch of one counts neither.
func TestReadBatchIsAReadPageLoop(t *testing.T) {
	opts := Options{MaxDifferentialSize: 128}
	_, chipA, shadow := diffStore(t, opts, 16, 24)
	_, chipB, _ := diffStore(t, opts, 16, 24)
	batch, loop := coldStore(t, chipA, 24, opts), coldStore(t, chipB, 24, opts)
	size := chipA.Params().DataSize
	shadow[2][9] ^= 0xFF
	for _, s := range []*Store{batch, loop} {
		if err := s.WritePage(2, shadow[2]); err != nil {
			t.Fatal(err)
		}
	}
	pids := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 3}
	bufs := make([][]byte, len(pids))
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	buf := make([]byte, size)
	for round := int64(1); round <= 3; round++ {
		readsA, readsB := chipA.Stats().Reads, chipB.Stats().Reads
		if err := batch.ReadBatch(pids, bufs); err != nil {
			t.Fatal(err)
		}
		for i, pid := range pids {
			if err := loop.ReadPage(pid, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bufs[i], shadow[pid]) || !bytes.Equal(buf, shadow[pid]) {
				t.Fatalf("round %d: pid %d read back other bytes than written", round, pid)
			}
		}
		if a, b := chipA.Stats().Reads-readsA, chipB.Stats().Reads-readsB; a != b {
			t.Errorf("round %d: ReadBatch cost %d device reads, the ReadPage loop %d", round, a, b)
		}
		a, b := batch.Telemetry(), loop.Telemetry()
		if a.DiffCacheHits != b.DiffCacheHits || a.DiffCacheMisses != b.DiffCacheMisses {
			t.Errorf("round %d: ReadBatch counted %d hits and %d misses, the ReadPage loop %d and %d",
				round, a.DiffCacheHits, a.DiffCacheMisses, b.DiffCacheHits, b.DiffCacheMisses)
		}
		if a.BatchReads != round || a.BatchedReads != round*int64(len(pids)) || b.BatchReads != 0 || b.BatchedReads != 0 {
			t.Errorf("round %d: BatchReads %d and BatchedReads %d (ReadPage loop: %d and %d), want %d and %d",
				round, a.BatchReads, a.BatchedReads, b.BatchReads, b.BatchedReads, round, round*int64(len(pids)))
		}
	}
	if tel := batch.Telemetry(); tel.DiffCacheHits == 0 || tel.DiffCacheMisses == 0 {
		t.Errorf("the rounds counted %d hits and %d misses: the cache was not exercised", tel.DiffCacheHits, tel.DiffCacheMisses)
	}
	if err := batch.ReadBatch(pids[:1], bufs[:1]); err != nil {
		t.Fatal(err)
	}
	if tel := batch.Telemetry(); tel.BatchReads != 3 || tel.BatchedReads != 3*int64(len(pids)) {
		t.Errorf("a one-pid ReadBatch counted as a batch: BatchReads %d, BatchedReads %d", tel.BatchReads, tel.BatchedReads)
	}
}
