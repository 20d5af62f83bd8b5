package core

// Tests of the differential cache itself (the arena, its budget, reclaim)
// and of the one rule that keeps it coherent with a store whose flash pages
// are erased and reused under it: an entry counts only at the time stamp
// the reader snapshotted with its mapping.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/ftltest"
)

// testRecord is the wire form of a differential of pid stamped ts that
// changes n bytes, each to fill.
func testRecord(pid uint32, ts uint64, n int, fill byte) []byte {
	return diff.Differential{PID: pid, TS: ts,
		Ranges: []diff.Range{{Off: 0, Data: bytes.Repeat([]byte{fill}, n)}}}.AppendTo(nil)
}

// cached returns the cache's copy of the record of pid stamped ts.
func cached(c *diffCache, pid uint32, ts uint64) ([]byte, bool) {
	return c.copyOut(pid, ts, nil)
}

func TestDiffCacheMatchesByPidAndTimeStamp(t *testing.T) {
	c := newDiffCache(64<<10, 100, 512)
	if _, ok := cached(c, 7, 1); ok {
		t.Fatal("an empty cache hit")
	}
	rec := testRecord(7, 5, 40, 0xA5)
	c.putPage(rec)
	if got, ok := cached(c, 7, 5); !ok || !bytes.Equal(got, rec) {
		t.Fatalf("cached record = %x, %v; want the record put", got, ok)
	}
	for _, miss := range []struct {
		pid uint32
		ts  uint64
	}{{7, 4}, {7, 6}, {8, 5}} {
		if _, ok := cached(c, miss.pid, miss.ts); ok {
			t.Errorf("(pid %d, ts %d) hit the record of (7, 5)", miss.pid, miss.ts)
		}
	}
	page := bytes.Repeat([]byte{0x11}, 512)
	if hit, err := c.merge(7, 5, page); !hit || err != nil || page[0] != 0xA5 || page[39] != 0xA5 || page[40] != 0x11 {
		t.Errorf("merge: hit=%v err=%v page[0]=%#x page[40]=%#x", hit, err, page[0], page[40])
	}

	// The larger time stamp stays, whichever arrives last: a slow reader must
	// not put back the record a newer flush replaced.
	c.putPage(testRecord(7, 3, 8, 0x33))
	if _, ok := cached(c, 7, 3); ok {
		t.Error("an older record replaced a newer one")
	}
	newer := testRecord(7, 9, 8, 0x99)
	c.putPage(newer)
	if _, ok := cached(c, 7, 5); ok {
		t.Error("the superseded record still matches")
	}
	if got, ok := cached(c, 7, 9); !ok || !bytes.Equal(got, newer) || c.len() != 1 {
		t.Errorf("after the newer insert: ok=%v len=%d", ok, c.len())
	}
}

func TestDiffCacheReadMissCachesOnSecondMiss(t *testing.T) {
	c := newDiffCache(64<<10, 100, 512)
	rec := testRecord(3, 2, 16, 1)
	c.putRead(rec)
	if _, ok := cached(c, 3, 2); ok || c.len() != 0 {
		t.Fatal("the first miss of a pid cached its record")
	}
	c.putRead(rec)
	if _, ok := cached(c, 3, 2); !ok || c.len() != 1 {
		t.Fatal("the second miss of a pid did not cache its record")
	}
}

func TestDiffCacheRefusesOversizeRecord(t *testing.T) {
	// One page of budget: a table of 8 slots and one 480-byte segment.
	c := newDiffCache(512, 8, 512)
	c.putPage(testRecord(1, 1, 470, 7)) // 490 bytes
	if _, ok := cached(c, 1, 1); ok || c.len() != 0 {
		t.Error("a record larger than a segment was cached")
	}
	small := testRecord(1, 2, 100, 7)
	c.putPage(small)
	if got, ok := cached(c, 1, 2); !ok || !bytes.Equal(got, small) {
		t.Error("a record that fits was refused")
	}
	if got := c.bytes(); got > 512 {
		t.Errorf("cache allocated %d bytes of a 512-byte budget", got)
	}
}

// TestDiffCacheReclaim: when no segment's dead bytes make the room an insert
// needs, the segment after the head is compacted keeping only the live
// records no larger than the mean size of the records the cache admitted;
// larger and superseded ones go, hit or not. If those it keeps still leave
// the insert too little room, the segment is emptied.
func TestDiffCacheReclaim(t *testing.T) {
	const pageSize, budget = 512, 3*segPages*512 + 4*64
	newCache := func(t *testing.T) *diffCache {
		c := newDiffCache(budget, 64, pageSize)
		if len(c.segs) != 3 || c.segSize != segPages*pageSize {
			t.Fatalf("arena = %d segments of %d bytes, want 3 of %d", len(c.segs), c.segSize, segPages*pageSize)
		}
		return c
	}

	t.Run("keeps records up to the mean", func(t *testing.T) {
		c := newCache(t)
		small, large, stale := uint32(1), uint32(2), uint32(3)
		c.putPage(testRecord(small, 10, 64, 1))
		c.putPage(testRecord(large, 10, 2000, 2))
		c.putPage(testRecord(stale, 10, 64, 3))
		c.putPage(testRecord(stale, 11, 64, 4))
		for _, pid := range []uint32{small, large} {
			if _, ok := cached(c, pid, 10); !ok {
				t.Fatalf("pid %d missing right after its insert", pid)
			}
		}
		// Live filler of 1,022 bytes takes the head out of the first segment
		// and once round, back into it: the first segment's 86 dead bytes never
		// make room for one.
		next := uint32(10)
		last := len(testRecord(next, 1, 1000, 0))
		fill := func() {
			t.Helper()
			c.putPage(testRecord(next, 1, 1000, 0))
			next++
			if got := c.bytes(); got > budget {
				t.Fatalf("cache allocated %d bytes of a %d-byte budget", got, budget)
			}
		}
		for c.head == 0 {
			fill()
		}
		for c.head != 0 {
			fill()
		}
		if mean := c.admittedBytes / c.admitted; mean < 86 || mean >= last {
			t.Fatalf("admitted mean %d bytes, want between the small records' 86 and the filler's %d", mean, last)
		}
		if got, ok := cached(c, small, 10); !ok || !bytes.Equal(got, testRecord(small, 10, 64, 1)) {
			t.Error("a live record smaller than the mean did not survive its segment's reclaim")
		}
		if _, ok := cached(c, stale, 11); !ok {
			t.Error("the newest record of a superseded pid, smaller than the mean, did not survive")
		}
		if _, ok := cached(c, large, 10); ok {
			t.Error("a live record larger than the mean survived its segment's reclaim, though it was hit")
		}
		if _, ok := cached(c, stale, 10); ok {
			t.Error("the superseded record matches again")
		}
		if _, ok := cached(c, 10, 1); ok {
			t.Error("the filler record the first segment held, larger than the mean, survived")
		}
		// The first segment holds the two small survivors and the filler that
		// brought the head here, and no dead byte.
		if got, want := len(c.segs[0]), 2*len(testRecord(0, 0, 64, 0))+last; got != want || c.dead[0] != 0 {
			t.Errorf("first segment holds %d bytes, %d dead, after reclaim, want %d and 0", got, c.dead[0], want)
		}
		if want := 2 + int(next-10) - 1; c.len() != want {
			t.Errorf("%d records cached, want %d", c.len(), want)
		}
	})

	t.Run("empties what still leaves too little room", func(t *testing.T) {
		c := newCache(t)
		// 47 small live records fill the first segment; three of 3,022 bytes
		// take one segment each, the last back in the first, whose small
		// records, all under the mean, leave it too little room.
		for pid := uint32(0); pid < 47; pid++ {
			c.putPage(testRecord(pid, 1, 64, byte(pid)))
		}
		if c.head != 0 {
			t.Fatalf("47 small records moved the head to segment %d", c.head)
		}
		for pid := uint32(47); pid < 50; pid++ {
			c.putPage(testRecord(pid, 1, 3000, byte(pid)))
		}
		if mean := c.admittedBytes / c.admitted; mean < 86 {
			t.Fatalf("admitted mean %d bytes, want at least the small records' 86", mean)
		}
		if c.head != 0 || len(c.segs[0]) != len(testRecord(49, 1, 3000, 0)) {
			t.Errorf("head %d, first segment %d bytes: want the first segment to hold only the last insert", c.head, len(c.segs[0]))
		}
		for pid := uint32(0); pid < 47; pid++ {
			if _, ok := cached(c, pid, 1); ok {
				t.Fatalf("pid %d survived a segment that had to be emptied", pid)
			}
		}
		if c.len() != 3 {
			t.Errorf("%d records cached, want the 3 large ones", c.len())
		}
	})
}

// TestDiffCacheRefusedRecordDropsOlder: a record larger than a segment is
// refused, and the older record of its pid, which can never hit again, is
// dead: it no longer counts as cached, its bytes count as its segment's dead
// ones (recounted under -tags pdlinvariants at the reclaim that follows), and
// dead-first compaction gives them back.
func TestDiffCacheRefusedRecordDropsOlder(t *testing.T) {
	// One page of budget: a table of 8 slots and one 480-byte segment.
	c := newDiffCache(512, 8, 512)
	old := testRecord(1, 1, 100, 1) // 122 bytes
	c.putPage(old)
	c.putPage(testRecord(1, 2, 470, 2)) // 492 bytes
	if _, ok := cached(c, 1, 1); ok || c.len() != 0 || c.dead[0] != len(old) {
		t.Fatalf("after the refused insert: old hits %v, %d records, %d dead bytes; want false, 0, %d", ok, c.len(), c.dead[0], len(old))
	}
	next := testRecord(2, 3, 400, 3) // 422 bytes: fits only once the old record goes
	c.putPage(next)
	if got, ok := cached(c, 2, 3); !ok || !bytes.Equal(got, next) || c.len() != 1 || len(c.segs[0]) != len(next) || c.dead[0] != 0 {
		t.Errorf("after the next insert: hit %v, %d records, segment %d bytes, %d dead; want true, 1, %d, 0", ok, c.len(), len(c.segs[0]), c.dead[0], len(next))
	}
}

// TestDiffCacheKeepsSmallRecordsUnderPressure drives the cache alone with a
// stream shaped like page_file: uniform pids, each pid's record growing by
// one 41-byte run (and its 4-byte range header) a write, read once before the
// next write supersedes it and dropped when it would pass 256 bytes (a new
// base page). The live records are about twice the arena, so reclaim must
// evict live ones; it keeps those no larger than the admitted mean, and they
// hit more often than the larger ones. The hit share was 0.601 when this
// was written, and 0.466 under the reclaim it replaced, which kept the
// records hit since they were written whatever their size (second chance).
func TestDiffCacheKeepsSmallRecordsUnderPressure(t *testing.T) {
	const pageSize, numPages, segs, writes = 512, 512, 8, 100000
	c := newDiffCache(segs*segPages*pageSize+4*numPages, numPages, pageSize)
	if len(c.segs) != segs {
		t.Fatalf("arena of %d segments, want %d", len(c.segs), segs)
	}
	size := func(runs int) int { return 16 + 45*runs }
	runs := make([]int, numPages) // runs of each pid's current record, 0: none
	stamp := make([]uint64, numPages)
	rng := rand.New(rand.NewSource(11))
	var reads, hits [2]int // [0]: records at most the admitted mean, [1]: larger
	admitted, admittedBytes := 0, 0
	for ts := uint64(1); ts <= writes; ts++ {
		pid := uint32(rng.Intn(numPages))
		if k := runs[pid]; k > 0 {
			class := 0
			if size(k)*admitted > admittedBytes {
				class = 1
			}
			reads[class]++
			if _, ok := cached(c, pid, stamp[pid]); ok {
				hits[class]++
			}
		}
		runs[pid]++
		if size(runs[pid]) > 256 {
			c.drop(pid, ts)
			runs[pid] = 0
			continue
		}
		d := diff.Differential{PID: pid, TS: ts}
		for i := range runs[pid] {
			d.Ranges = append(d.Ranges, diff.Range{Off: 64 * i, Data: bytes.Repeat([]byte{byte(ts)}, 41)})
		}
		c.putPage(d.AppendTo(nil))
		stamp[pid] = ts
		admitted++
		admittedBytes += size(runs[pid])
	}
	live, arena := 0, segs*c.segSize
	for _, k := range runs {
		if k > 0 {
			live += size(k)
		}
	}
	if live < 3*arena/2 || live > 3*arena {
		t.Fatalf("live records of %d bytes against an arena of %d: want about twice", live, arena)
	}
	small, large := float64(hits[0])/float64(reads[0]), float64(hits[1])/float64(reads[1])
	share := float64(hits[0]+hits[1]) / float64(reads[0]+reads[1])
	t.Logf("hit share %.3f: records up to the mean %.3f of %d reads, larger %.3f of %d", share, small, reads[0], large, reads[1])
	if small <= large {
		t.Errorf("records up to the mean hit %.3f of their reads, larger ones %.3f: want the small ones more", small, large)
	}
	const measured, margin = 0.601, 0.03
	if share < measured-margin {
		t.Errorf("hit share %.3f, want at least %.3f (measured %.3f, less a margin of %.2f)", share, measured-margin, measured, margin)
	}
}

// TestDiffCacheReclaimsDeadFirst: while the records later inserts superseded
// cover the room an insert needs, the arena makes the room out of them and
// evicts no live record, though none was ever hit. A live set of two thirds
// of the arena leaves some segment a sixth of dead bytes at every insert.
func TestDiffCacheReclaimsDeadFirst(t *testing.T) {
	const pageSize, budget, live = 512, 3*segPages*512 + 4*64, 40
	c := newDiffCache(budget, 64, pageSize)
	if n := len(testRecord(0, 1, 180, 0)); live*n > 2*len(c.segs)*c.segSize/3 {
		t.Fatalf("%d records of %d bytes fill more than two thirds of the arena", live, n)
	}
	rng := rand.New(rand.NewSource(7))
	newest := make([]uint64, live)
	for ts := uint64(1); ts <= 50*live; ts++ {
		pid := uint32(ts - 1)
		if pid >= live {
			pid = uint32(rng.Intn(live))
		}
		c.putPage(testRecord(pid, ts, 180, byte(ts)))
		newest[pid] = ts
		if want := min(int(ts), live); c.len() != want {
			t.Fatalf("insert %d: %d records cached, want all %d live ones", ts, c.len(), want)
		}
	}
	for pid, ts := range newest {
		if got, ok := cached(c, uint32(pid), ts); !ok || !bytes.Equal(got, testRecord(uint32(pid), ts, 180, byte(ts))) {
			t.Errorf("pid %d: its newest record does not hit", pid)
		}
	}
}

// TestDiffCacheRandomOpsStayInsideBudget drives a small cache with random
// inserts and lookups against a model of the newest record per pid: the
// allocation never passes the budget, a hit is always the newest record,
// byte for byte, and the record count matches the table.
func TestDiffCacheRandomOpsStayInsideBudget(t *testing.T) {
	for _, numPages := range []int{40, 5000} { // table by pid, and hashed
		t.Run(fmt.Sprint(numPages), func(t *testing.T) {
			const pageSize, budget = 512, 20 * 512
			c := newDiffCache(budget, numPages, pageSize)
			rng := rand.New(rand.NewSource(int64(numPages)))
			newest := map[uint32][]byte{}
			var ts uint64
			hits := 0
			for i := 0; i < 20000; i++ {
				pid := uint32(rng.Intn(numPages))
				if rng.Intn(3) == 0 {
					ts++
					rec := testRecord(pid, ts, 1+rng.Intn(400), byte(ts))
					newest[pid] = rec
					if rng.Intn(2) == 0 {
						c.putPage(rec)
					} else {
						c.putRead(rec)
					}
				} else if want, ok := newest[pid]; ok {
					_, wts := diff.RecordKey(want)
					if got, ok := cached(c, pid, wts); ok {
						hits++
						if !bytes.Equal(got, want) {
							t.Fatalf("op %d: pid %d hit returned other bytes", i, pid)
						}
					}
					if _, ok := cached(c, pid, wts-1); ok {
						t.Fatalf("op %d: pid %d matched a time stamp it does not carry", i, pid)
					}
				}
				if got := c.bytes(); got > budget {
					t.Fatalf("op %d: cache allocated %d bytes of a %d-byte budget", i, got, budget)
				}
			}
			if hits == 0 {
				t.Error("the cache never hit")
			}
			occupied := 0
			for _, slot := range c.idx {
				if slot&^refBit != 0 {
					occupied++
				}
			}
			if occupied != c.len() {
				t.Errorf("len() = %d, the table holds %d records", c.len(), occupied)
			}
		})
	}
}

func TestDiffCacheIdleCostsNothing(t *testing.T) {
	c := newDiffCache(256*2048, 8192, 2048)
	if _, ok := cached(c, 1, 1); ok {
		t.Fatal("hit")
	}
	if got := c.bytes(); got != 0 {
		t.Errorf("a cache nothing was put into allocated %d bytes", got)
	}

	// The window of retained base images is filled by reads alone, a slot at
	// a time: a store that never read holds no image, one that read three
	// pages holds three.
	s, _, _ := diffStore(t, Options{MaxDifferentialSize: 128}, 16, 40)
	if s.bimg.win.keys != nil || s.bimg.held.keys != nil || s.bimg.len() != 0 {
		t.Fatalf("a store that never read holds %d base images", s.bimg.len())
	}
	buf := make([]byte, s.PageSize())
	for pid := uint32(0); pid < 3; pid++ {
		if err := s.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.bimg.len(); got != 3 {
		t.Errorf("three reads left %d base images", got)
	}
}

// TestApplyFromPageChecksTimeStamp: a differential page whose newest record
// for the pid is not the one the mapping's time stamp names is a broken
// invariant, reported like a missing record and never merged.
func TestApplyFromPageChecksTimeStamp(t *testing.T) {
	s, _, _ := loadStore(t, 8, 4, 0)
	size := s.PageSize()
	page := make([]byte, size)
	encodeDiffPage(page, []diff.Differential{
		{PID: 1, TS: 7, Ranges: []diff.Range{{Off: 0, Data: []byte{0xAA}}}},
		{PID: 2, TS: 8, Ranges: []diff.Range{{Off: 0, Data: []byte{0xBB}}}},
		{PID: 1, TS: 9, Ranges: []diff.Range{{Off: 1, Data: []byte{0xCC}}}},
	})
	for _, c := range []struct {
		pid  uint32
		ts   uint64
		want []byte // the first two bytes after the merge; nil: an error
	}{
		{1, 9, []byte{0, 0xCC}},
		{2, 8, []byte{0xBB, 0}},
		{1, 7, nil}, // the page's newest record of pid 1 is stamped 9
		{1, 10, nil},
		{3, 9, nil}, // no record at all
	} {
		buf := make([]byte, size)
		// The mapping names the record of time stamp c.ts over a base of stamp 0.
		err := s.applyFromPage(page, &pageRead{pid: c.pid, e: mapEntry{difDist: uint32(c.ts)}, buf: buf})
		if c.want == nil {
			if err == nil || !bytes.Equal(buf, make([]byte, size)) {
				t.Errorf("(pid %d, ts %d): err=%v, buffer touched=%v; want an error and an untouched buffer",
					c.pid, c.ts, err, !bytes.Equal(buf, make([]byte, size)))
			}
			continue
		}
		if err != nil || !bytes.Equal(buf[:2], c.want) {
			t.Errorf("(pid %d, ts %d): err=%v merged %x, want %x", c.pid, c.ts, err, buf[:2], c.want)
		}
	}
	if s.DiffCacheLen() != 0 {
		t.Error("a refused or first-miss record reached the cache")
	}
}

// BenchmarkDiffCache times the three things the cache does: serve a hit
// (find and merge under the mutex), take a record while the arena has room,
// and take one when the arena is full of records reclaim has to move.
func BenchmarkDiffCache(b *testing.B) {
	const pageSize, numPages = 2048, 8192
	budget := defaultDiffCachePages * pageSize
	// stamp rewrites the key of a record in place: the pid and the 48-bit
	// time stamp.
	stamp := func(rec []byte, pid uint32, ts uint64) []byte {
		binary.LittleEndian.PutUint32(rec[2:], pid)
		binary.LittleEndian.PutUint16(rec[6:], uint16(ts))
		binary.LittleEndian.PutUint32(rec[8:], uint32(ts>>16))
		return rec
	}
	rec, large := testRecord(0, 1, 200, 0x5A), testRecord(0, 1, 600, 0xA5)
	page := make([]byte, pageSize)
	b.Run("hit", func(b *testing.B) {
		c := newDiffCache(budget, numPages, pageSize)
		for pid := uint32(0); pid < 1024; pid++ {
			c.putPage(stamp(rec, pid, 1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if hit, err := c.merge(uint32(i)%1024, 1, page); !hit || err != nil {
				b.Fatal(hit, err)
			}
		}
	})
	// insert: the default budget, which 1000 records do not fill (so the
	// time includes allocating segments on first use). reclaim: four
	// segments, filled every 156 records, of 220 and 620 bytes in turn and
	// never hit; a pid comes back only after 8192 inserts, so the records a
	// reclaim meets are mostly live, and it keeps the small ones until they
	// leave too little room and it empties the segment.
	for _, c := range []struct {
		name   string
		budget int
		recs   [][]byte
	}{{"insert", budget, [][]byte{rec}}, {"reclaim", 4*segPages*pageSize + 4*numPages, [][]byte{rec, large}}} {
		b.Run(c.name, func(b *testing.B) {
			dc := newDiffCache(c.budget, numPages, pageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pid, ts := uint32(i)%numPages, uint64(i/numPages)+1
				dc.putPage(stamp(c.recs[i%len(c.recs)], pid, ts))
			}
		})
	}
}

// TestDefaultCacheBudgetFollowsLogicalPages: with DiffCachePages zero the
// budget P is one page for every pagesPerCachePage logical pages the store is
// opened with, never fewer than defaultDiffCachePages; an explicit budget
// wins, and DiffCacheOff turns the record arena, the window and the held
// region off. Then a store that writes, turns read-only and writes again: the
// arena never allocates past P, the window and the held region never past
// P/8 + P, and the dormant window releases the held images.
func TestDefaultCacheBudgetFollowsLogicalPages(t *testing.T) {
	for _, c := range []struct{ numPages, opt, want int }{
		{100, 0, 256},
		{8192, 0, 256},
		{12449, 0, 389},
		{12449, 64, 64},
		{12449, DiffCacheOff, 0},
	} {
		params := ftltest.SmallParams((c.numPages + 15) / 16)
		s, err := New(flash.NewChip(params), c.numPages, Options{DiffCachePages: c.opt})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if c.want == 0 {
			if s.dcache != nil || s.bimg != nil {
				t.Fatalf("%d pages, DiffCacheOff: a cache was built", c.numPages)
			}
			continue
		}
		bound := c.want * params.DataSize
		dc := s.dcache
		arena := 4*dc.nslots + len(dc.segs)*dc.segSize
		if arena > bound || arena <= bound-dc.segSize {
			t.Errorf("%d pages, option %d: arena of %d bytes, want the most segments within %d", c.numPages, c.opt, arena, bound)
		}
		if s.bimg.held.max != c.want || s.bimg.win.max != c.want/baseImagesShare {
			t.Errorf("%d pages, option %d: %d held and %d window slots, want %d and %d",
				c.numPages, c.opt, s.bimg.held.max, s.bimg.win.max, c.want, c.want/baseImagesShare)
		}
	}

	const numPages, cachePages = 200, 16
	s, _, shadow := diffStore(t, Options{MaxDifferentialSize: 128, DiffCachePages: cachePages}, 64, numPages)
	size := s.PageSize()
	bound := int64(cachePages * size)
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, size)
	step := func(what string) Telemetry {
		t.Helper()
		tel := s.Telemetry()
		if tel.DiffCacheBytes > bound || tel.BaseImageBytes > bound+bound/baseImagesShare {
			t.Fatalf("%s: arena %d bytes, base images %d, past P = %d or P/8 + P", what, tel.DiffCacheBytes, tel.BaseImageBytes, bound)
		}
		return tel
	}
	read := func(pid uint32) {
		t.Helper()
		if err := s.ReadPage(pid, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[pid]) {
			t.Fatalf("pid %d read does not match shadow", pid)
		}
		step(fmt.Sprintf("read %d", pid))
	}
	// update is a pool's round trip: fault, first dirty, write-back.
	update := func(pid uint32) {
		t.Helper()
		read(pid)
		s.RetainBase(pid)
		step(fmt.Sprintf("hold %d", pid))
		off := rng.Intn(size - 24)
		rng.Read(shadow[pid][off : off+24])
		if err := s.WritePage(pid, shadow[pid]); err != nil {
			t.Fatal(err)
		}
		step(fmt.Sprintf("write %d", pid))
	}
	writes := func(what string, from uint32) {
		t.Helper()
		before := step(what)
		for pid := from; pid < from+numPages; pid++ {
			update(pid % numPages)
		}
		tel := step(what)
		if holds, hits := tel.BaseHolds-before.BaseHolds, tel.WriteBaseHits-before.WriteBaseHits; holds != numPages || hits != numPages || s.bimg.heldLen() != 0 {
			t.Fatalf("%s: %d holds, %d write-backs served, %d images still held, want %d, %d and 0", what, holds, hits, s.bimg.heldLen(), numPages, numPages)
		}
	}

	writes("writes", 0)
	// Reads only: the window sleeps and the held region is released.
	for round := 0; !s.bimg.dormant.Load(); round++ {
		if round == 4 {
			t.Fatal("the window never went dormant under reads")
		}
		for pid := uint32(0); pid < numPages; pid++ {
			read(pid)
		}
	}
	if tel := step("reads"); s.bimg.heldLen() != 0 || tel.BaseImageBytes > bound/baseImagesShare {
		t.Fatalf("reads: %d held, base images %d bytes against a window of %d", s.bimg.heldLen(), tel.BaseImageBytes, bound/baseImagesShare)
	}
	// Writes again: a write or a hold wakes the window, and holds are served.
	pid := uint32(0)
	for ; s.bimg.dormant.Load(); pid++ {
		if pid == 2*baseImagesProbe {
			t.Fatal("the window never woke under writes")
		}
		update(pid % numPages)
	}
	writes("writes again", pid)
	for pid := range shadow {
		mustReadEqual(t, s, uint32(pid), shadow[pid])
	}
}
