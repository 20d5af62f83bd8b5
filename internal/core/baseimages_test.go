package core

import (
	"bytes"
	"math/rand"
	"testing"

	"pdl/internal/buffer"
	"pdl/internal/flash"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// writeBaseCost is what the writes between two telemetry snapshots cost in
// base images: flash reads, and images the read path had retained.
func writeBaseCost(before, after Telemetry) (reads, hits int64) {
	return after.WriteBaseReads - before.WriteBaseReads, after.WriteBaseHits - before.WriteBaseHits
}

// updateRun overwrites a 2% run of page at a random offset: the paper's
// update operation.
func updateRun(rng *rand.Rand, page []byte) {
	n := max(1, len(page)/50)
	off := rng.Intn(len(page) - n + 1)
	rng.Read(page[off : off+n])
}

func TestBaseImagesMatchByPidAndTimeStamp(t *testing.T) {
	if newBaseImages(0, 8) != nil {
		t.Fatal("a window of no images is not off")
	}
	b := newBaseImages(3, 2)
	img := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 64) }
	dst := make([]byte, 64)
	if b.get(1, 10, dst) {
		t.Fatal("hit in a window nothing was put into")
	}
	b.put(1, 10, img(0xA1))
	b.put(2, 20, img(0xA2))
	b.put(1, 11, img(0xB1)) // pid 1 under a newer base: the older image stays, under its own name
	for _, c := range []struct {
		pid  uint32
		ts   uint64
		fill byte
	}{{1, 10, 0xA1}, {2, 20, 0xA2}, {1, 11, 0xB1}} {
		if !b.get(c.pid, c.ts, dst) || !bytes.Equal(dst, img(c.fill)) {
			t.Errorf("(%d, %d): miss or wrong image", c.pid, c.ts)
		}
	}
	if b.get(2, 21, dst) || b.get(3, 10, dst) {
		t.Error("hit under a name nothing was put under")
	}
	b.put(4, 40, img(0xA4)) // the fourth image of three slots: the oldest leaves
	if b.get(1, 10, dst) {
		t.Error("the oldest image outlived the window")
	}
	if !b.get(2, 20, dst) || !b.get(1, 11, dst) || !b.get(4, 40, dst) || b.len() != 3 {
		t.Error("the three newest images are not all held")
	}
	src := img(0xC5)
	b.put(5, 50, src)
	src[0] = 0 // the window keeps a copy, not the caller's buffer
	if !b.get(5, 50, dst) || dst[0] != 0xC5 {
		t.Error("the retained image aliases the buffer it was put from")
	}
}

// TestBaseImagesCopyOnlyWhileWritesAreServed: after two laps of reads with no
// write that found its image the window goes dormant and reads leave nothing;
// a write that still finds an image, or the baseImagesProbe-th that finds
// none, sets the copying going again.
func TestBaseImagesCopyOnlyWhileWritesAreServed(t *testing.T) {
	const n = 4
	b := newBaseImages(n, n)
	img, dst := bytes.Repeat([]byte{0x77}, 64), make([]byte, 64)
	ts := uint64(0)
	read := func() uint64 { ts++; b.put(9, ts, img); return ts }
	for i := 0; i < 2*n; i++ {
		read()
	}
	kept := ts
	if b.get(9, read(), dst) {
		t.Fatal("a read in the third lap with no write served was retained")
	}
	if !b.get(9, kept, dst) || !bytes.Equal(dst, img) {
		t.Fatal("going dormant dropped the images already held")
	}
	if !b.get(9, read(), dst) {
		t.Fatal("the read after a write found an image was not retained")
	}
	for i := 0; i < 2*n; i++ {
		read()
	}
	for i := 1; i < baseImagesProbe; i++ {
		if b.get(8, 1, dst) || !b.dormant.Load() {
			t.Fatalf("the window woke after %d writes that found nothing, want %d", i, baseImagesProbe)
		}
	}
	if b.get(8, 1, dst) || !b.get(9, read(), dst) {
		t.Fatalf("the window did not wake at the %dth write that found nothing", baseImagesProbe)
	}
	for i := 0; i < 3*n; i++ {
		if !b.get(9, read(), dst) {
			t.Fatalf("read %d after the restart was not retained although every read was served", i)
		}
	}
}

// TestBaseImagesHold: hold moves an image from the window into the held region
// by swapping buffers; there no read pushes it out, a hit leaves it in place,
// the next hold past the bound pushes the oldest out, and dormancy releases the
// region. A hold that finds nothing is a miss like a write's.
func TestBaseImagesHold(t *testing.T) {
	const n, maxHeld = 4, 3
	img := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 64) }
	dst := make([]byte, 64)
	b := newBaseImages(n, maxHeld)
	serves := func(pid uint32, ts uint64, fill byte) bool {
		return b.get(pid, ts, dst) && bytes.Equal(dst, img(fill))
	}
	if (*baseImages)(nil).hold(1, 10) {
		t.Fatal("hold with no window held something")
	}

	b.put(1, 10, img(0xA1))
	b.put(2, 20, img(0xA2))
	if b.hold(1, 9) || b.hold(3, 10) || b.heldLen() != 0 {
		t.Fatal("hold under a stale stamp, or of a page never read, held something")
	}
	slot := b.win.find(pageStamp{1, 10})
	buf := &b.win.imgs[slot][0]
	if !b.hold(1, 10) || !b.hold(1, 10) {
		t.Fatal("hold of an image in the window, and again once it is held, missed")
	}
	if &b.held.imgs[0][0] != buf || b.win.imgs[slot] != nil || b.win.find(pageStamp{1, 10}) >= 0 {
		t.Fatal("hold copied the image, or left the window its buffer or its name")
	}
	if b.len() != 1 || b.heldLen() != 1 {
		t.Fatalf("%d images in the window and %d held, want 1 and 1", b.len(), b.heldLen())
	}

	// Two laps of the window, a write served in each so that it stays awake.
	ts := uint64(100)
	for lap := 0; lap < 2; lap++ {
		for i := 0; i < n; i++ {
			ts++
			b.put(9, ts, img(0x99))
		}
		if !serves(9, ts, 0x99) {
			t.Fatal("the newest image of the window does not serve")
		}
	}
	if !serves(1, 10, 0xA1) || !serves(1, 10, 0xA1) {
		t.Fatal("the held image did not survive two laps of the window, or left at its first hit")
	}

	// The bound: the third further hold refills the oldest slot, and its
	// buffer goes back to the window slot the new image came from.
	for i := uint32(0); i < maxHeld; i++ {
		ts++
		b.put(20+i, ts, img(byte(0xB0+i)))
		slot = b.win.find(pageStamp{20 + i, ts})
		if !b.hold(20+i, ts) {
			t.Fatalf("hold %d missed the image just put", i)
		}
	}
	if b.get(1, 10, dst) || b.heldLen() != maxHeld {
		t.Fatalf("the oldest held image outlived the bound: %d held", b.heldLen())
	}
	if &b.win.imgs[slot][0] != buf {
		t.Error("the buffer of the image that left was not handed back to the window")
	}
	for i := uint32(0); i < maxHeld; i++ {
		if !serves(20+i, ts-uint64(maxHeld-1-i), byte(0xB0+i)) {
			t.Errorf("held image %d does not serve", i)
		}
	}

	// Dormancy gives the region back; misses while dormant count to the probe.
	for i := 0; i < 2*n; i++ {
		ts++
		b.put(9, ts, img(0x99))
	}
	if !b.dormant.Load() || b.heldLen() != 0 || b.held.imgs != nil {
		t.Fatalf("after two laps with nothing served: dormant %v, %d held", b.dormant.Load(), b.heldLen())
	}
	for i := 1; i < baseImagesProbe; i++ {
		if b.hold(8, 1) || !b.dormant.Load() {
			t.Fatalf("the window woke after %d holds that found nothing, want %d", i, baseImagesProbe)
		}
	}
	if b.hold(8, 1) || b.dormant.Load() {
		t.Fatalf("the window did not wake at the %dth hold that found nothing", baseImagesProbe)
	}
	for i := 0; i < 2*n; i++ {
		ts++
		b.put(9, ts, img(0x99))
	}
	if !b.dormant.Load() || !b.hold(9, ts) || b.dormant.Load() || !serves(9, ts, 0x99) {
		t.Fatal("a hold that found its image did not wake the window, or the image does not serve")
	}
}

// TestRetainBaseIsAHint: naming a page that does not exist, was never written,
// or is rewritten before its write-back costs nothing but the read the hint
// was meant to save, and with DiffCacheOff the call does nothing.
func TestRetainBaseIsAHint(t *testing.T) {
	const numPages = 40
	chip := flash.NewChip(ftltest.SmallParams(12))
	s, err := New(chip, numPages, Options{MaxDifferentialSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	s.RetainBase(numPages) // out of range
	s.RetainBase(3)        // never written
	if tel := s.Telemetry(); tel.BaseHolds != 0 || tel.BaseHoldMisses != 0 || s.bimg.heldLen() != 0 {
		t.Fatalf("naming no page: %d holds, %d misses", tel.BaseHolds, tel.BaseHoldMisses)
	}
	shadow := loadInto(t, s, numPages)
	rng := rand.New(rand.NewSource(31))

	s.RetainBase(3) // written, never read: the window has no image of it
	if tel := s.Telemetry(); tel.BaseHolds != 0 || tel.BaseHoldMisses != 1 {
		t.Fatalf("naming a page nobody read: %d holds, %d misses, want 0 and 1", tel.BaseHolds, tel.BaseHoldMisses)
	}
	mustReadEqual(t, s, 3, shadow[3])
	s.RetainBase(3)
	rng.Read(shadow[3]) // a Case 3 rewrite from elsewhere: the held image is of a base that is gone
	if err := s.WritePage(3, shadow[3]); err != nil {
		t.Fatal(err)
	}
	before := s.Telemetry()
	updateRun(rng, shadow[3])
	if err := s.WritePage(3, shadow[3]); err != nil {
		t.Fatal(err)
	}
	if reads, hits := writeBaseCost(before, s.Telemetry()); reads != 1 || hits != 0 {
		t.Errorf("the write-back after a rewrite: %d base reads and %d hits, want 1 and 0", reads, hits)
	}
	mustReadEqual(t, s, 3, shadow[3])
	if tel := s.Telemetry(); tel.BaseHolds != 1 || tel.BaseHoldMisses != 1 {
		t.Errorf("%d holds and %d misses in all, want 1 and 1", tel.BaseHolds, tel.BaseHoldMisses)
	}

	off, _, offShadow := diffStore(t, Options{MaxDifferentialSize: 128, DiffCachePages: DiffCacheOff}, 24, numPages)
	mustReadEqual(t, off, 3, offShadow[3])
	off.RetainBase(3)
	if tel := off.Telemetry(); tel.BaseHolds != 0 || tel.BaseHoldMisses != 0 {
		t.Errorf("DiffCacheOff: %d holds and %d misses", tel.BaseHolds, tel.BaseHoldMisses)
	}
}

// TestBaseImagesServeTheWriteThatFollowsARead: a write whose page was read
// within the window reads no base page, single and batched alike, and a
// batch one page wider than the window reads exactly one.
func TestBaseImagesServeTheWriteThatFollowsARead(t *testing.T) {
	const numPages = 80
	s, _, shadow := diffStore(t, Options{MaxDifferentialSize: 128}, 24, numPages)
	if s.bimg == nil || s.bimg.win.max != defaultDiffCachePages/baseImagesShare {
		t.Fatalf("default options built the window %+v", s.bimg)
	}
	window := s.bimg.win.max
	size := s.PageSize()
	rng := rand.New(rand.NewSource(17))

	before := s.Telemetry()
	buf := make([]byte, size)
	if err := s.ReadPage(7, buf); err != nil {
		t.Fatal(err)
	}
	updateRun(rng, buf)
	if err := s.WritePage(7, buf); err != nil {
		t.Fatal(err)
	}
	copy(shadow[7], buf)
	if reads, hits := writeBaseCost(before, s.Telemetry()); reads != 0 || hits != 1 {
		t.Errorf("ReadPage then WritePage: %d base reads and %d hits, want 0 and 1", reads, hits)
	}

	first := uint32(10)
	for _, c := range []struct{ width, wantReads int }{{window, 0}, {window + 1, 1}} {
		pids := make([]uint32, c.width)
		bufs := make([][]byte, c.width)
		writes := make([]ftl.PageWrite, c.width)
		for i := range pids {
			pids[i] = first + uint32(i)
			bufs[i] = make([]byte, size)
		}
		before = s.Telemetry()
		if err := s.ReadBatch(pids, bufs); err != nil {
			t.Fatal(err)
		}
		for i, pid := range pids {
			if !bytes.Equal(bufs[i], shadow[pid]) {
				t.Fatalf("pid %d batch read does not match shadow", pid)
			}
			updateRun(rng, bufs[i])
			copy(shadow[pid], bufs[i])
			writes[i] = ftl.PageWrite{PID: pid, Data: bufs[i]}
		}
		if err := s.WriteBatch(writes); err != nil {
			t.Fatal(err)
		}
		if reads, hits := writeBaseCost(before, s.Telemetry()); reads != int64(c.wantReads) || hits != int64(c.width-c.wantReads) {
			t.Errorf("ReadBatch(%d) then WriteBatch: %d base reads and %d hits, want %d and %d",
				c.width, reads, hits, c.wantReads, c.width-c.wantReads)
		}
		first += uint32(c.width)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for pid := range shadow {
		mustReadEqual(t, s, uint32(pid), shadow[pid])
	}

	off, _, _ := diffStore(t, Options{MaxDifferentialSize: 128, DiffCachePages: DiffCacheOff}, 24, numPages)
	small, _, _ := diffStore(t, Options{MaxDifferentialSize: 128, DiffCachePages: baseImagesShare - 1}, 24, numPages)
	for _, sub := range []*Store{off, small} {
		if sub.bimg != nil {
			t.Fatalf("DiffCachePages %d built a window", sub.bimg.win.max*baseImagesShare)
		}
		if err := sub.ReadPage(7, buf); err != nil {
			t.Fatal(err)
		}
		before = sub.Telemetry()
		updateRun(rng, buf)
		if err := sub.WritePage(7, buf); err != nil {
			t.Fatal(err)
		}
		if reads, hits := writeBaseCost(before, sub.Telemetry()); reads != 1 || hits != 0 {
			t.Errorf("without a window: %d base reads and %d hits, want 1 and 0", reads, hits)
		}
	}
}

// TestBaseImagesCoherence: (pid, base time stamp) names one content. A new
// base page draws a new stamp, so the image of the old one can never serve a
// write again, with no invalidation anywhere; a relocated base page keeps its
// stamp and its content, so its image still serves.
func TestBaseImagesCoherence(t *testing.T) {
	const numPages = 40
	chip := flash.NewChip(ftltest.SmallParams(12))
	s, err := New(chip, numPages, Options{MaxDifferentialSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	shadow := loadInto(t, s, numPages) // in pid order: block 0 holds the base pages of pids 0..15
	size := s.PageSize()
	rng := rand.New(rand.NewSource(29))
	buf := make([]byte, size)
	small := func(pid uint32) {
		t.Helper()
		updateRun(rng, shadow[pid])
		if err := s.WritePage(pid, shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}

	// A Case 3 rewrite after the read: new base page, new stamp.
	const a = 20
	mustReadEqual(t, s, a, shadow[a])
	_, oldTS, _, _ := s.mt.snapshot(a)
	rng.Read(shadow[a])
	before := s.Telemetry()
	if err := s.WritePage(a, shadow[a]); err != nil {
		t.Fatal(err)
	}
	if reads, hits := writeBaseCost(before, s.Telemetry()); reads != 0 || hits != 1 {
		t.Fatalf("the rewrite after the read: %d base reads and %d hits, want 0 and 1", reads, hits)
	}
	if _, newTS, _, _ := s.mt.snapshot(a); newTS <= oldTS {
		t.Fatalf("the rewrite left base time stamp %d after %d: not a new base page", newTS, oldTS)
	}
	if !s.bimg.get(a, oldTS, buf) {
		t.Fatal("the superseded image was dropped: something invalidates")
	}
	before = s.Telemetry()
	small(a) // no read since the rewrite: only the old image is retained
	if reads, hits := writeBaseCost(before, s.Telemetry()); reads != 1 || hits != 0 {
		t.Errorf("the write after the rewrite: %d base reads and %d hits, want 1 and 0 (the old image must miss)", reads, hits)
	}
	mustReadEqual(t, s, a, shadow[a])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mustReadEqual(t, s, a, shadow[a])

	// A relocation after the read: same stamp, same content, another PPN.
	const b = 5
	for pid := uint32(0); pid < 16; pid++ {
		if pid != b { // kill b's neighbours: block 0 becomes the greedy victim
			rng.Read(shadow[pid])
			if err := s.WritePage(pid, shadow[pid]); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustReadEqual(t, s, b, shadow[b])
	from := entryOf(s, b).base
	_, stamp, _, _ := s.mt.snapshot(b)
	if collected, err := (chanCollector{s: s, ch: 0}).CollectOne(); err != nil || !collected {
		t.Fatalf("CollectOne = %v, %v", collected, err)
	}
	if to := entryOf(s, b).base; to == from {
		t.Fatalf("pid %d's base page is still at %d: the collection relocated something else", b, from)
	}
	if _, now, _, _ := s.mt.snapshot(b); now != stamp {
		t.Fatalf("relocation moved the base time stamp from %d to %d", stamp, now)
	}
	before = s.Telemetry()
	small(b)
	if reads, hits := writeBaseCost(before, s.Telemetry()); reads != 0 || hits != 1 {
		t.Errorf("the write after the relocation: %d base reads and %d hits, want 0 and 1", reads, hits)
	}
	mustReadEqual(t, s, b, shadow[b])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for pid := range shadow {
		mustReadEqual(t, s, uint32(pid), shadow[pid])
	}
}

// loadModel writes numPages random pages to s and flushes: the load both
// update loops start from, with the telemetry as of its end.
func loadModel(t *testing.T, s *Store, numPages int, rng *rand.Rand) (loaded Telemetry, model [][]byte) {
	t.Helper()
	model = make([][]byte, numPages)
	for pid := range model {
		model[pid] = make([]byte, s.PageSize())
		rng.Read(model[pid])
		if err := s.WritePage(uint32(pid), model[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s.Telemetry(), model
}

// paperLoop runs the paper's update operation (read the page, change a 2%
// run, write it back) on s from one goroutine: rounds of single updates and
// one batched update of distinct pages, a flush every few rounds, at 50%
// utilisation so that garbage collection runs throughout. It loads the
// store first and returns the telemetry as of the end of the load and the
// final content of every page. Every read is held to the model.
func paperLoop(t *testing.T, s *Store, numPages, rounds int) (loaded Telemetry, model [][]byte) {
	t.Helper()
	const singles, width = 8, 8
	size := s.PageSize()
	rng := rand.New(rand.NewSource(20261001))
	loaded, model = loadModel(t, s, numPages, rng)
	buf := make([]byte, size)
	bufs := make([][]byte, width)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	pids := make([]uint32, width)
	writes := make([]ftl.PageWrite, width)
	for round := 0; round < rounds; round++ {
		for i := 0; i < singles; i++ {
			pid := uint32(rng.Intn(numPages))
			if err := s.ReadPage(pid, buf); err != nil {
				t.Fatalf("round %d: ReadPage(%d): %v", round, pid, err)
			}
			if !bytes.Equal(buf, model[pid]) {
				t.Fatalf("round %d: pid %d differs from the model", round, pid)
			}
			updateRun(rng, buf)
			if err := s.WritePage(pid, buf); err != nil {
				t.Fatalf("round %d: WritePage(%d): %v", round, pid, err)
			}
			copy(model[pid], buf)
		}
		for i, pid := range rng.Perm(numPages)[:width] {
			pids[i] = uint32(pid)
		}
		if err := s.ReadBatch(pids, bufs); err != nil {
			t.Fatalf("round %d: ReadBatch: %v", round, err)
		}
		for i, pid := range pids {
			if !bytes.Equal(bufs[i], model[pid]) {
				t.Fatalf("round %d: pid %d differs from the model in the batch", round, pid)
			}
			updateRun(rng, bufs[i])
			copy(model[pid], bufs[i])
			writes[i] = ftl.PageWrite{PID: pid, Data: bufs[i]}
		}
		if err := s.WriteBatch(writes); err != nil {
			t.Fatalf("round %d: WriteBatch: %v", round, err)
		}
		if round%5 == 4 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return loaded, model
}

// poolLoop is the update operation as a DBMS buffer makes it (Figure 10): a
// buffer.Pool of a twentieth of the database over s, and steps that fault a
// page in and, seven times in ten, change a 2% run of it, so that a page is
// written back when it is evicted, a pool's worth of reads after it was
// fetched, and is sometimes dirtied on a hit long after. It has paperLoop's
// contract; the pool is flushed before it returns.
func poolLoop(t *testing.T, s *Store, numPages, steps int) (loaded Telemetry, model [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(20261001))
	loaded, model = loadModel(t, s, numPages, rng)
	pool, err := buffer.NewPool(s, numPages/20)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		pid := uint32(rng.Intn(numPages))
		page, err := pool.Get(pid)
		if err != nil {
			t.Fatalf("step %d: Get(%d): %v", step, pid, err)
		}
		if !bytes.Equal(page, model[pid]) {
			t.Fatalf("step %d: pid %d differs from the model", step, pid)
		}
		if rng.Intn(10) < 7 {
			updateRun(rng, page)
			if err := pool.MarkDirty(pid); err != nil {
				t.Fatal(err)
			}
			copy(model[pid], page)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	return loaded, model
}

// updateLoop is one of the two loops the oracle below runs, with the store it
// runs on and the share of writes that may still read their base page.
type updateLoop struct {
	name                        string
	run                         func(t *testing.T, s *Store, numPages, rounds int) (Telemetry, [][]byte)
	numBlocks, numPages, rounds int
	gate                        float64
}

// TestBaseImagesOnAndOffAreOneStore is the equivalence oracle and the count
// gate of the retained base images: the same seeded update loop on a store
// with default options and on one with DiffCacheOff, on each backend, leaves
// byte-identical pages behind the same programs and erases, every flash read
// the first store did not make is accounted for by a hit, and in the loop's
// steady state the default store reads (next to) no base page for a write
// where the other reads one for every write. The loop is the paper's, where
// the write follows the read at once, and a buffer pool's (64 frames over
// 1280 pages), where it follows at eviction and the pool's first-dirty hint
// is what keeps the image that long.
func TestBaseImagesOnAndOffAreOneStore(t *testing.T) {
	for _, backend := range []struct {
		name string
		dev  ftltest.DeviceFactory
	}{{"emu", ftltest.EmulatorDevice}, {"filedev", fileDevice}} {
		t.Run(backend.name, func(t *testing.T) {
			for _, loop := range []updateLoop{
				{"paper", paperLoop, 12, 96, 150, 0.02},
				// 0.066 measured on both backends (0.007 under the LRU pool
				// the gate of 0.05 was set for): the adaptive pool keeps a
				// page that was used again resident for longer, so more pages
				// are first dirtied, on a hit, after their image has left the
				// 32-page window of recent reads that the first-dirty hint
				// takes it from, and those writes read their base again.
				{"pool", poolLoop, 128, 1280, 12000, 0.07},
			} {
				t.Run(loop.name, func(t *testing.T) { onAndOffAreOneStore(t, backend.dev, loop) })
			}
		})
	}
}

func onAndOffAreOneStore(t *testing.T, dev ftltest.DeviceFactory, loop updateLoop) {
	run := func(cachePages int) (*Store, Telemetry, [][]byte) {
		s, err := New(dev(t, ftltest.SmallParams(loop.numBlocks)), loop.numPages,
			Options{MaxDifferentialSize: 128, DiffCachePages: cachePages})
		if err != nil {
			t.Fatal(err)
		}
		loaded, model := loop.run(t, s, loop.numPages, loop.rounds)
		return s, loaded, model
	}
	on, onLoaded, onModel := run(0)
	off, offLoaded, offModel := run(DiffCacheOff)

	got, want := make([]byte, on.PageSize()), make([]byte, on.PageSize())
	for pid := range onModel {
		if !bytes.Equal(onModel[pid], offModel[pid]) {
			t.Fatalf("the two runs of the loop wrote different content to pid %d", pid)
		}
		if err := on.ReadPage(uint32(pid), got); err != nil {
			t.Fatal(err)
		}
		if err := off.ReadPage(uint32(pid), want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, onModel[pid]) {
			t.Errorf("pid %d: the stores, or a store and the model, disagree", pid)
		}
	}
	a, b := on.Stats(), off.Stats()
	if a.Erases == 0 {
		t.Error("the loop never collected a block")
	}
	if a.Writes != b.Writes || a.Erases != b.Erases {
		t.Errorf("defaults %v, DiffCacheOff %v: want the same programs and erases", a, b)
	}
	// Read for read: the two stores differ only in the reads the window
	// and the differential cache saved, and every saved base page read
	// is a counted hit. (A saved differential page read may be several
	// hits: one ReadBatch reads a page once for all the pids it serves.)
	onTel, offTel := on.Telemetry(), off.Telemetry()
	if onTel.BaseReads != offTel.BaseReads || onTel.GCReads != offTel.GCReads {
		t.Errorf("defaults read %d base and %d GC pages, DiffCacheOff %d and %d",
			onTel.BaseReads, onTel.GCReads, offTel.BaseReads, offTel.GCReads)
	}
	if saved := offTel.WriteBaseReads - onTel.WriteBaseReads; saved != onTel.WriteBaseHits || saved == 0 {
		t.Errorf("defaults read %d base pages fewer for writes and counted %d hits", saved, onTel.WriteBaseHits)
	}
	savedDiff := offTel.DiffReads - onTel.DiffReads
	if savedDiff <= 0 || savedDiff > onTel.DiffCacheHits {
		t.Errorf("defaults read %d differential pages fewer and counted %d hits", savedDiff, onTel.DiffCacheHits)
	}
	if saved := b.Reads - a.Reads; saved != savedDiff+onTel.WriteBaseHits {
		t.Errorf("defaults read %d pages fewer, %d differential pages and %d base images account for %d",
			saved, savedDiff, onTel.WriteBaseHits, savedDiff+onTel.WriteBaseHits)
	}
	if offTel.WriteBaseHits != 0 || offTel.DiffCacheHits != 0 {
		t.Errorf("DiffCacheOff counted %d base-image and %d cache hits", offTel.WriteBaseHits, offTel.DiffCacheHits)
	}

	// The count gate, over the update loop alone (the load reads nothing).
	share := func(tel, loaded Telemetry) float64 {
		return float64(tel.WriteBaseReads-loaded.WriteBaseReads) / float64(tel.LogicalWrites-loaded.LogicalWrites)
	}
	if r := share(onTel, onLoaded); r > loop.gate {
		t.Errorf("defaults: %.3f base page reads per logical write, want at most %.2f", r, loop.gate)
	}
	if r := share(offTel, offLoaded); r < 0.95 || r > 1 {
		t.Errorf("DiffCacheOff: %.3f base page reads per logical write, want the paper's 1", r)
	}
}
