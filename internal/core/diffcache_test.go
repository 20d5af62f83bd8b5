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
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// bytes returns what the cache has allocated: the table and the segments
// in use.
func (c *diffCache) bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 4 * len(c.idx)
	for _, seg := range c.segs {
		n += cap(seg)
	}
	return n
}

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

// TestDiffCacheReclaim walks the arena once round: of the first segment's
// records only the one that was hit and is still its pid's newest survives.
func TestDiffCacheReclaim(t *testing.T) {
	const pageSize, budget = 512, 3*segPages*512 + 4*64
	c := newDiffCache(budget, 64, pageSize)
	if len(c.segs) != 3 || c.segSize != segPages*pageSize {
		t.Fatalf("arena = %d segments of %d bytes, want 3 of %d", len(c.segs), c.segSize, segPages*pageSize)
	}
	hit, idle, stale, staleHit := uint32(1), uint32(2), uint32(3), uint32(4)
	for _, pid := range []uint32{hit, idle, stale, staleHit} {
		c.putPage(testRecord(pid, 10, 64, byte(pid)))
	}
	for _, pid := range []uint32{hit, staleHit} {
		if _, ok := cached(c, pid, 10); !ok {
			t.Fatalf("pid %d missing right after its insert", pid)
		}
	}
	// Newer records of two pids follow; filler that is never hit then takes
	// the head out of the first segment and once round, back into it.
	c.putPage(testRecord(stale, 11, 64, 0xEE))
	c.putPage(testRecord(staleHit, 11, 64, 0xEF))
	next := uint32(10)
	fill := func() int {
		t.Helper()
		rec := testRecord(next, 1, 1000, 0)
		next++
		c.putPage(rec)
		if got := c.bytes(); got > budget {
			t.Fatalf("cache allocated %d bytes of a %d-byte budget", got, budget)
		}
		return len(rec)
	}
	round := func() (last int) {
		for c.head == 0 {
			fill()
		}
		for c.head != 0 {
			last = fill()
		}
		return last
	}
	last := round()
	if got, ok := cached(c, hit, 10); !ok || !bytes.Equal(got, testRecord(hit, 10, 64, byte(hit))) {
		t.Error("the record that was hit and is current did not survive its segment's reclaim")
	}
	if _, ok := cached(c, idle, 10); ok {
		t.Error("a record that was never hit survived its segment's reclaim")
	}
	for _, pid := range []uint32{stale, staleHit} {
		if _, ok := cached(c, pid, 10); ok {
			t.Errorf("the superseded record of pid %d matches again", pid)
		}
	}
	// What is left of the first segment is the one survivor and the filler
	// that brought the head here: everything else gave its bytes back.
	if got, want := len(c.segs[0]), len(testRecord(hit, 10, 64, 0))+last; got != want {
		t.Errorf("first segment holds %d bytes after reclaim, want %d", got, want)
	}
	// The check above hit the survivor again: it stays another round, and
	// goes in the round after, in which nothing touches it.
	round()
	if len(c.segs[0]) <= last {
		t.Error("a record hit since its last reclaim did not survive the next one")
	}
	round()
	if got := len(c.segs[0]); got != last {
		t.Errorf("first segment holds %d bytes, want only the %d of the filler: a record not hit since its last reclaim survived", got, last)
	}
	if int(next) > 64 {
		t.Fatalf("the filler ran past the store's %d pids", 64)
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
		err := s.applyFromPage(page, &pageRead{pid: c.pid, ts: c.ts, buf: buf})
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

// TestDiffCacheCoherentAcrossPPNReuse takes one physical page X through
// three lives: pid A's differential, then — after A's differential was
// superseded and X's block erased — the differentials of other pids, then
// A's differential again. Whatever the cache still holds from an earlier
// life of X, or of A, reads return current bytes.
//
// In the pinned variant A's later differentials are larger than the cache's
// one segment, so the cache refuses them and keeps, to the end, the record
// A had in X's first life: the mapping points at X again, the entry under
// A's pid was read from X, and only the time stamp tells them apart.
func TestDiffCacheCoherentAcrossPPNReuse(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		t.Run(fmt.Sprintf("pinned=%v", pinned), func(t *testing.T) {
			p := ftltest.SmallParams(8)
			p.PagesPerBlock = 4
			chip := flash.NewChip(p)
			const numPages, A = 8, uint32(0)
			opts := Options{}
			if pinned {
				opts.DiffCachePages = 1
			}
			s, err := New(chip, numPages, opts)
			if err != nil {
				t.Fatal(err)
			}
			size := p.DataSize
			shadow := make([][]byte, numPages)
			for pid := range shadow {
				shadow[pid] = batchPage(uint32(pid), 0, size)
				if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
					t.Fatal(err)
				}
			}
			buf := make([]byte, size)
			// update changes pid's first n bytes to values no earlier version
			// had there, writes the page and flushes: one differential page.
			version := byte(0)
			update := func(pid uint32, n int) {
				t.Helper()
				version++
				base := batchPage(pid, 0, size)
				for i := 0; i < n; i++ {
					shadow[pid][i] = base[i] ^ version
				}
				if err := s.WritePage(pid, shadow[pid]); err != nil {
					t.Fatal(err)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				for q := range shadow {
					if err := s.ReadPage(uint32(q), buf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf, shadow[q]) {
						t.Fatalf("after version %d of pid %d: pid %d reads stale or foreign bytes", version, pid, q)
					}
				}
			}

			update(A, 8)
			X := entryOf(s, A).dif
			_, _, firstTS, _ := s.mt.snapshot(A)
			blkX := p.BlockOf(X)
			if _, ok := cached(s.dcache, A, firstTS); !ok {
				t.Fatal("the flush did not cache A's record")
			}
			large := 8
			if pinned {
				large = s.dcache.segSize // the record is 20 bytes longer: refused
			}
			life := 1
			rng := rand.New(rand.NewSource(3))
			for i := 0; life < 3; i++ {
				if i == 2000 {
					t.Fatalf("page %d never came back to pid %d (reached life %d)", X, A, life)
				}
				if rng.Intn(2) == 0 {
					update(A, large)
				} else {
					update(uint32(1+rng.Intn(numPages-1)), 8)
				}
				if pinned {
					// A reader still holding the first snapshot keeps the entry
					// hit, so it outlives every reclaim of its segment.
					cached(s.dcache, A, firstTS)
				}
				switch {
				case life == 1 && entryOf(s, A).dif != X:
					for pid := uint32(1); pid < numPages; pid++ {
						if entryOf(s, pid).dif == X && chip.EraseCount(blkX) > 0 {
							life = 2 // X holds other pids' records now
						}
					}
				case life == 2 && entryOf(s, A).dif == X:
					life = 3
				}
			}
			if pinned {
				if _, ok := cached(s.dcache, A, firstTS); !ok {
					t.Error("the record of X's first life left the cache: the test pinned nothing")
				}
				if _, _, ts, _ := s.mt.snapshot(A); ts == firstTS {
					t.Error("A's differential still carries its first time stamp")
				}
			}
			if chip.Stats().Erases == 0 {
				t.Error("no block was ever erased")
			}
		})
	}
}

// TestDiffCacheOnAndOffReadTheSameBytes runs one seeded program of single
// and batched writes and reads, flushes and collections on a tiny device
// against three stores — the default cache, a cache of two pages that
// reclaims all the time, and no cache — and holds every read of every store
// to the model. CI runs it under -race and -tags pdlinvariants.
func TestDiffCacheOnAndOffReadTheSameBytes(t *testing.T) {
	const numBlocks, numPages, steps = 10, 40, 4000
	type subject struct {
		name string
		s    *Store
	}
	var subjects []subject
	for _, c := range []struct {
		name  string
		pages int
	}{{"default", 0}, {"two pages", 2}, {"off", DiffCacheOff}} {
		s, err := New(flash.NewChip(ftltest.SmallParams(numBlocks)), numPages,
			Options{MaxDifferentialSize: 200, Shards: 2, DiffCachePages: c.pages})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		subjects = append(subjects, subject{c.name, s})
	}
	size := subjects[0].s.PageSize()
	rng := rand.New(rand.NewSource(20260929))
	model := make([][]byte, numPages)
	each := func(step int, op string, f func(s *Store) error) {
		t.Helper()
		for _, sub := range subjects {
			if err := f(sub.s); err != nil {
				t.Fatalf("step %d, %s, cache %s: %v", step, op, sub.name, err)
			}
		}
	}
	mutate := func(pid uint32) []byte {
		next := bytes.Clone(model[pid])
		for k := rng.Intn(3); k >= 0; k-- {
			off := rng.Intn(size - 24)
			rng.Read(next[off : off+1+rng.Intn(24)])
		}
		model[pid] = next
		return next
	}
	for pid := range model {
		model[pid] = make([]byte, size)
		rng.Read(model[pid])
		each(-1, "load", func(s *Store) error { return s.WritePage(uint32(pid), model[pid]) })
	}
	buf := make([]byte, size)
	bufs := make([][]byte, 6)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	for step := 0; step < steps; step++ {
		pid := uint32(rng.Intn(numPages))
		switch op := rng.Intn(10); {
		case op < 3:
			data := mutate(pid)
			each(step, "WritePage", func(s *Store) error { return s.WritePage(pid, data) })
		case op < 4:
			var ws []ftl.PageWrite
			for _, q := range rng.Perm(numPages)[:2+rng.Intn(5)] {
				ws = append(ws, ftl.PageWrite{PID: uint32(q), Data: mutate(uint32(q))})
			}
			each(step, "WriteBatch", func(s *Store) error { return s.WriteBatch(ws) })
		case op < 7:
			each(step, "ReadPage", func(s *Store) error {
				if err := s.ReadPage(pid, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, model[pid]) {
					return fmt.Errorf("pid %d differs from the model", pid)
				}
				return nil
			})
		case op < 8:
			pids := make([]uint32, 2+rng.Intn(5))
			for i := range pids {
				pids[i] = uint32(rng.Intn(numPages))
			}
			each(step, "ReadBatch", func(s *Store) error {
				if err := s.ReadBatch(pids, bufs[:len(pids)]); err != nil {
					return err
				}
				for i, q := range pids {
					if !bytes.Equal(bufs[i], model[q]) {
						return fmt.Errorf("pid %d differs from the model", q)
					}
				}
				return nil
			})
		case op < 9:
			each(step, "Flush", func(s *Store) error { return s.Flush() })
		default:
			each(step, "collect", func(s *Store) error {
				_, err := chanCollector{s: s, ch: 0}.CollectOne()
				return err
			})
		}
	}
	on, small, off := subjects[0].s, subjects[1].s, subjects[2].s
	if on.Stats().Erases == 0 {
		t.Error("the program never collected a block")
	}
	if tel := on.Telemetry(); tel.DiffCacheHits == 0 || tel.DiffCacheMisses != 0 {
		// Everything this store ever flushed fits its cache.
		t.Errorf("default cache: %d hits, %d misses; want hits only", tel.DiffCacheHits, tel.DiffCacheMisses)
	}
	if tel := small.Telemetry(); tel.DiffCacheHits == 0 || tel.DiffCacheMisses == 0 {
		t.Errorf("two-page cache: %d hits, %d misses; want both", tel.DiffCacheHits, tel.DiffCacheMisses)
	}
	if got := small.dcache.bytes(); got > 2*size {
		t.Errorf("two-page cache allocated %d bytes", got)
	}
	if a, b := on.Stats(), off.Stats(); a.Writes != b.Writes || a.Erases != b.Erases || a.Reads >= b.Reads {
		t.Errorf("cache on %v, cache off %v: want the same programs and erases and fewer reads", a, b)
	}
}

// TestReadAttributionSumsToDeviceReads: every page the store reads is
// counted under what it was read for, across single and batched reads and
// writes, garbage collection and recovery.
func TestReadAttributionSumsToDeviceReads(t *testing.T) {
	const numBlocks, numPages = 10, 48
	chip := flash.NewChip(ftltest.SmallParams(numBlocks))
	opts := Options{MaxDifferentialSize: 128, DiffCachePages: 2}
	s, err := New(chip, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	size := s.PageSize()
	rng := rand.New(rand.NewSource(5))
	shadow := make([][]byte, numPages)
	for pid := range shadow {
		shadow[pid] = batchPage(uint32(pid), 0, size)
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	bufs := make([][]byte, 4)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	for i := 0; s.Telemetry().GCReads == 0; i++ {
		if i == 5000 {
			t.Fatal("no garbage collection had to relocate a page")
		}
		pids := rng.Perm(numPages)[:4]
		var ws []ftl.PageWrite
		for k, pid := range pids {
			n := 8
			if k == 0 && i%4 == 0 {
				n = size // a new base page: the old one dies among live neighbours
			}
			rng.Read(shadow[pid][:n])
			ws = append(ws, ftl.PageWrite{PID: uint32(pid), Data: shadow[pid]})
		}
		if err := s.WriteBatch(ws[:3]); err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(ws[3].PID, ws[3].Data); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadPage(uint32(rng.Intn(numPages)), bufs[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadBatch([]uint32{uint32(pids[0]), uint32(rng.Intn(numPages)), uint32(rng.Intn(numPages))}, bufs[:3]); err != nil {
			t.Fatal(err)
		}
	}
	tel := s.Telemetry()
	for name, n := range map[string]int64{"BaseReads": tel.BaseReads, "DiffReads": tel.DiffReads,
		"WriteBaseReads": tel.WriteBaseReads, "GCReads": tel.GCReads} {
		if n == 0 {
			t.Errorf("%s = 0 after a run that did all of it", name)
		}
	}
	if tel.RecoverReads != 0 {
		t.Errorf("RecoverReads = %d on a store that never recovered", tel.RecoverReads)
	}
	if sum, dev := tel.BaseReads+tel.DiffReads+tel.WriteBaseReads+tel.GCReads, chip.Stats().Reads; sum != dev {
		t.Errorf("attributed reads %d (base %d, diff %d, write-base %d, gc %d), the device counted %d",
			sum, tel.BaseReads, tel.DiffReads, tel.WriteBaseReads, tel.GCReads, dev)
	}
	if tel.DiffReads != tel.DiffCacheMisses {
		t.Errorf("DiffReads = %d, DiffCacheMisses = %d: a miss is one differential-page read", tel.DiffReads, tel.DiffCacheMisses)
	}

	before := chip.Stats().Reads
	r, err := Recover(chip, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	rtel := r.Telemetry()
	if got, want := rtel.RecoverReads, chip.Stats().Reads-before; got != want || got != int64(chip.Params().NumPages()) {
		t.Errorf("RecoverReads = %d, the device counted %d for a scan of %d pages", got, want, chip.Params().NumPages())
	}
	if rtel.BaseReads+rtel.DiffReads+rtel.WriteBaseReads+rtel.GCReads != 0 {
		t.Errorf("recovery counted reads under another kind: %+v", rtel)
	}
}

// BenchmarkDiffCache times the three things the cache does: serve a hit
// (find and merge under the mutex), take a record while the arena has room,
// and take one when the arena is full of records reclaim has to move.
func BenchmarkDiffCache(b *testing.B) {
	const pageSize, numPages = 2048, 8192
	budget := defaultDiffCachePages * pageSize
	// stamp rewrites the key of a record in place.
	stamp := func(rec []byte, pid uint32, ts uint64) []byte {
		binary.LittleEndian.PutUint32(rec[2:], pid)
		binary.LittleEndian.PutUint64(rec[6:], ts)
		return rec
	}
	rec := testRecord(0, 1, 200, 0x5A)
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
	// segments, filled every 290 records, and every record is hit, so each
	// reclaim moves a segment's worth once before the next drops it.
	for _, c := range []struct {
		name   string
		budget int
		hit    bool
	}{{"insert", budget, false}, {"reclaim", 4*segPages*pageSize + 4*numPages, true}} {
		b.Run(c.name, func(b *testing.B) {
			dc := newDiffCache(c.budget, numPages, pageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pid, ts := uint32(i)%numPages, uint64(i/numPages)+1
				dc.putPage(stamp(rec, pid, ts))
				if c.hit {
					if hit, err := dc.merge(pid, ts, page); !hit || err != nil {
						b.Fatal(hit, err)
					}
				}
			}
		})
	}
}
