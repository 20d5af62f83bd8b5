package core

// Tests for the batch-first, cache-aware read path: the differential cache
// must turn the second flash read of a diff-bearing page into a table
// lookup, must never serve a superseded record wherever differential pages
// die or move, must never survive into recovery, and the whole read path
// must stay correct under concurrent batched writes and background garbage
// collection (run with -race).

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pdl/internal/flash"
	"pdl/internal/ftl"
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

func TestDiffCacheInvalidatedOnSupersede(t *testing.T) {
	// A new flush supersedes every pid's differential. Nothing tells the
	// cache: the old records simply stop matching the mapping's time stamps,
	// the new ones replace them pid by pid, and reads see the new content.
	s, chip, shadow := diffStore(t, Options{MaxDifferentialSize: 256}, 16, 8)
	size := chip.Params().DataSize
	buf := make([]byte, size)
	for pid := range shadow {
		if err := s.ReadPage(uint32(pid), buf); err != nil { // flag every record hit
			t.Fatal(err)
		}
	}
	if got := s.DiffCacheLen(); got != len(shadow) {
		t.Fatalf("cache holds %d records after the flush, want %d", got, len(shadow))
	}
	// Supersede every pid's differential: new small updates + flush drain
	// the old differential page's count to zero, releasing it.
	rng := rand.New(rand.NewSource(8))
	for pid := range shadow {
		off := rng.Intn(size - 4)
		rng.Read(shadow[pid][off : off+4])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.DiffCacheLen(); got != len(shadow) {
		t.Errorf("cache holds %d records, want one per pid (%d)", got, len(shadow))
	}
	chip.ResetStats()
	for pid := range shadow {
		if err := s.ReadPage(uint32(pid), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d: stale content after supersede", pid)
		}
	}
	if got, want := chip.Stats().Reads, int64(len(shadow)); got != want {
		t.Errorf("reading %d superseded pids cost %d device reads, want one each", want, got)
	}
}

func TestDiffCacheCoherentAcrossGC(t *testing.T) {
	// Heavy update volume forces garbage collection to compact and
	// relocate differential pages repeatedly; with reads interleaved so the
	// cache is always warm, every read must still return the shadow.
	const numBlocks = 12
	params := ftltest.SmallParams(numBlocks)
	numPages := numBlocks * params.PagesPerBlock * 45 / 100
	chip := flash.NewChip(params)
	s, err := New(chip, numPages, Options{MaxDifferentialSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	size := params.DataSize
	rng := rand.New(rand.NewSource(91))
	shadow := make([][]byte, numPages)
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, size)
	for i := 0; i < numBlocks*params.PagesPerBlock*6; i++ {
		pid := uint32(rng.Intn(numPages))
		off := rng.Intn(size - 8)
		rng.Read(shadow[pid][off : off+8])
		if err := s.WritePage(pid, shadow[pid]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		rpid := uint32(rng.Intn(numPages))
		if err := s.ReadPage(rpid, buf); err != nil {
			t.Fatalf("op %d read: %v", i, err)
		}
		if !bytes.Equal(buf, shadow[rpid]) {
			t.Fatalf("op %d: pid %d read stale/corrupt content", i, rpid)
		}
	}
	if chip.Stats().Erases == 0 {
		t.Fatal("no GC happened; the test exercised nothing")
	}
	if tel := s.Telemetry(); tel.DiffCacheHits == 0 {
		t.Error("cache never hit across the workload")
	}
}

func TestReadBatchTelemetryAndDedup(t *testing.T) {
	opts := Options{MaxDifferentialSize: 128}
	_, chip, shadow := diffStore(t, opts, 16, 24)
	s := coldStore(t, chip, 24, opts)
	size := chip.Params().DataSize
	pids := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	bufs := make([][]byte, len(pids))
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	chip.ResetStats()
	if err := s.ReadBatch(pids, bufs); err != nil {
		t.Fatal(err)
	}
	for i, pid := range pids {
		if !bytes.Equal(bufs[i], shadow[pid]) {
			t.Fatalf("pid %d wrong content", pid)
		}
	}
	tel := s.Telemetry()
	if tel.BatchReads != 2 {
		t.Errorf("BatchReads = %d, want 2 (one base batch + one diff batch)", tel.BatchReads)
	}
	// With one shard every pid's differential lives in the same page:
	// the diff batch dedups to a single physical read, so the whole batch
	// costs len(pids) base reads + 1.
	if got, want := chip.Stats().Reads, int64(len(pids))+1; got != want {
		t.Errorf("batch cost %d device reads, want %d (deduped diff page)", got, want)
	}
	if tel.BatchedReads != int64(len(pids))+1 {
		t.Errorf("BatchedReads = %d, want %d", tel.BatchedReads, len(pids)+1)
	}
	// That one physical read is one miss; the other pids it served are hits.
	if tel.DiffCacheMisses != 1 || tel.DiffCacheHits != int64(len(pids))-1 {
		t.Errorf("cold batch: hits=%d misses=%d, want %d/1", tel.DiffCacheHits, tel.DiffCacheMisses, len(pids)-1)
	}

	// The second batch over the same pids misses once more and caches every
	// record it asked for; the third hits: no diff batch at all, exactly one
	// base read per pid.
	for _, want := range []int64{int64(len(pids)) + 1, int64(len(pids))} {
		chip.ResetStats()
		if err := s.ReadBatch(pids, bufs); err != nil {
			t.Fatal(err)
		}
		if got := chip.Stats().Reads; got != want {
			t.Errorf("repeated batch cost %d device reads, want %d", got, want)
		}
	}
	if got := s.DiffCacheLen(); got != len(pids) {
		t.Errorf("cache holds %d records, want %d", got, len(pids))
	}
}

// TestConcurrentReadBatchWriteBatchGC is the -race hammer of the read
// pipeline: batched readers race batched writers and background garbage
// collection. Readers assert only invariants that hold under concurrency:
// every returned page must be SOME version the workload wrote for that pid
// (versions are self-identifying by a pid+counter stamp in the page).
func TestConcurrentReadBatchWriteBatchGC(t *testing.T) {
	const (
		numBlocks = 16
		writers   = 4
		readers   = 4
		rounds    = 60
		batch     = 12
	)
	params := ftltest.SmallParams(numBlocks)
	numPages := numBlocks * params.PagesPerBlock * 40 / 100
	chip := flash.NewChip(params)
	s, err := New(chip, numPages, Options{
		MaxDifferentialSize: 128,
		Shards:              writers,
		BackgroundGC:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	size := params.DataSize

	// stamp writes a self-identifying page: pid and version in the first
	// bytes, a version-derived fill after.
	stamp := func(buf []byte, pid uint32, ver uint32) {
		for i := range buf {
			buf[i] = byte(pid) ^ byte(ver>>uint(i%3))
		}
		buf[0], buf[1] = byte(pid), byte(pid>>8)
		buf[2], buf[3] = byte(ver), byte(ver>>8)
	}
	checkStamp := func(buf []byte, pid uint32) error {
		gotPID := uint32(buf[0]) | uint32(buf[1])<<8
		if gotPID != pid&0xFFFF {
			return fmt.Errorf("pid %d: page stamped for pid %d", pid, gotPID)
		}
		ver := uint32(buf[2]) | uint32(buf[3])<<8
		for i := 4; i < len(buf); i++ {
			if buf[i] != byte(pid)^byte(ver>>uint(i%3)) {
				return fmt.Errorf("pid %d: torn page at byte %d (ver %d)", pid, i, ver)
			}
		}
		return nil
	}

	// Load every page at version 0 so readers never see ErrNotWritten.
	init := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		stamp(init, uint32(pid), 0)
		if err := s.WritePage(uint32(pid), init); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			bufs := make([][]byte, batch)
			for i := range bufs {
				bufs[i] = make([]byte, size)
			}
			for r := 0; r < rounds; r++ {
				writes := make([]ftl.PageWrite, batch)
				perm := rng.Perm(numPages)
				for i := 0; i < batch; i++ {
					pid := uint32(perm[i])
					stamp(bufs[i], pid, uint32(r*writers+w+1))
					writes[i] = ftl.PageWrite{PID: pid, Data: bufs[i]}
				}
				if err := s.WriteBatch(writes); err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
				if r%8 == 0 {
					if err := s.Flush(); err != nil {
						errs <- fmt.Errorf("writer %d flush: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			pids := make([]uint32, batch)
			bufs := make([][]byte, batch)
			for i := range bufs {
				bufs[i] = make([]byte, size)
			}
			for r := 0; r < rounds*2; r++ {
				for i := range pids {
					pids[i] = uint32(rng.Intn(numPages))
				}
				if err := s.ReadBatch(pids, bufs); err != nil {
					errs <- fmt.Errorf("reader %d round %d: %w", g, r, err)
					return
				}
				for i, pid := range pids {
					if err := checkStamp(bufs[i], pid); err != nil {
						errs <- fmt.Errorf("reader %d round %d: %w", g, r, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRecoveryIdenticalWithAndWithoutCache pins the volatile-cache
// argument: the cache never touches flash, so the flash image a cached
// store leaves behind recovers byte-identically under any cache setting.
func TestRecoveryIdenticalWithAndWithoutCache(t *testing.T) {
	chip := flash.NewChip(ftltest.SmallParams(16))
	const numPages = 64
	size := chip.Params().DataSize
	s, err := New(chip, numPages, Options{MaxDifferentialSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	shadow := make([][]byte, numPages)
	buf := make([]byte, size)
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		pid := rng.Intn(numPages)
		off := rng.Intn(size - 8)
		rng.Read(shadow[pid][off : off+8])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
		// Interleave reads so the cache is populated while flash mutates.
		rpid := uint32(rng.Intn(numPages))
		if err := s.ReadPage(rpid, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Telemetry().DiffCacheHits == 0 {
		t.Fatal("cache never hit; the pre-crash store did not exercise it")
	}

	// "Crash": abandon s, recover the same chip twice — cache on and off.
	for _, opts := range []Options{
		{MaxDifferentialSize: 128},
		{MaxDifferentialSize: 128, DiffCachePages: DiffCacheOff},
	} {
		r, err := Recover(chip, numPages, opts)
		if err != nil {
			t.Fatalf("Recover(cache=%v): %v", opts.DiffCachePages == 0, err)
		}
		if r.DiffCacheLen() != 0 {
			t.Error("recovered store's cache is not empty (cache must never survive restart)")
		}
		for pid := 0; pid < numPages; pid++ {
			if err := r.ReadPage(uint32(pid), buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, shadow[pid]) {
				t.Fatalf("recovered pid %d differs (DiffCachePages=%d)", pid, opts.DiffCachePages)
			}
		}
	}
}
