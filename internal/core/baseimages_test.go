package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

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
// by swapping buffers, and there no read pushes it out. Its write-back's hit
// hands it back to the window the same way and frees its slot, so a page named
// again after its write-back still finds its image; a hold takes a freed slot
// before the oldest live hold leaves, the next hold past the bound pushes the
// oldest out, and dormancy releases the region. A hold that finds nothing is a
// miss like a write's.
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
	if b.heldLen() != 1 {
		t.Fatal("the held image did not survive two laps of the window")
	}

	// The write-back: the image serves, and goes back to the window in its
	// buffer; its slot is free, and the page named again holds it again.
	if !serves(1, 10, 0xA1) {
		t.Fatal("the held image does not serve its write-back")
	}
	if b.heldLen() != 0 || b.win.find(pageStamp{1, 10}) < 0 || &b.win.imgs[b.win.find(pageStamp{1, 10})][0] != buf {
		t.Fatalf("after the write-back %d images held, want the image back in the window in its own buffer", b.heldLen())
	}
	if !serves(1, 10, 0xA1) || !b.hold(1, 10) || b.heldLen() != 1 || &b.held.imgs[0][0] != buf {
		t.Fatal("the page named again after its write-back did not find its image, or not in the freed slot")
	}

	// The bound: two more holds fill the region, a write-back frees the
	// middle one, and the next hold takes that slot, not the oldest's.
	hold := func(pid uint32) uint64 {
		ts++
		b.put(pid, ts, img(byte(pid)))
		if !b.hold(pid, ts) {
			t.Fatalf("hold of pid %d missed the image just put", pid)
		}
		return ts
	}
	ts21, ts22 := hold(21), hold(22)
	if !serves(21, ts21, 21) || b.heldLen() != maxHeld-1 {
		t.Fatal("the write-back of pid 21 did not free its slot")
	}
	ts23 := hold(23)
	if b.heldLen() != maxHeld || b.held.find(pageStamp{1, 10}) < 0 || len(b.held.keys) != maxHeld {
		t.Fatal("a hold with a slot free pushed a live hold out")
	}
	ts24 := hold(24) // past the bound: pid 1's, the oldest hold, leaves
	if b.held.find(pageStamp{1, 10}) >= 0 || b.heldLen() != maxHeld {
		t.Fatalf("the oldest held image outlived the bound: %d held", b.heldLen())
	}
	for _, h := range []struct {
		pid uint32
		ts  uint64
	}{{22, ts22}, {23, ts23}, {24, ts24}} {
		if b.held.find(pageStamp{h.pid, h.ts}) < 0 || !serves(h.pid, h.ts, byte(h.pid)) {
			t.Errorf("held image of pid %d does not serve", h.pid)
		}
	}

	// Dormancy gives the region back; misses while dormant count to the probe.
	hold(25)
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

// TestHeldImagesEvictOldestHold drives the held region's slot map, free-slot
// stack and hold-order list with seeded holds and write-backs against a model
// that keeps the live holds in a slice, oldest first: after every step the
// region names exactly the model's images, each in a slot of its own, its
// list runs in the model's order, and a hold into a full region has pushed out
// the model's oldest.
func TestHeldImagesEvictOldestHold(t *testing.T) {
	const maxHeld = 5
	rng := rand.New(rand.NewSource(5))
	h := newHeldImages(maxHeld)
	var model []pageStamp
	for step := 0; step < 5000; step++ {
		key := pageStamp{uint32(1 + rng.Intn(12)), 1}
		if i := slices.Index(model, key); i >= 0 && rng.Intn(4) > 0 { // the write-back
			slot := h.find(key)
			if slot < 0 {
				t.Fatalf("step %d: held image %v not found", step, key)
			}
			h.release(slot)
			model = slices.Delete(model, i, i+1)
		} else if i < 0 {
			if len(model) == maxHeld {
				model = model[1:]
			}
			h.take(key)
			model = append(model, key)
		}
		var order []pageStamp
		for i := h.head; i >= 0 && len(order) <= maxHeld; i = h.next[i] {
			order = append(order, h.keys[i])
		}
		if !slices.Equal(order, model) || len(h.slot) != len(model) || len(h.keys) > maxHeld {
			t.Fatalf("step %d: held %v in hold order (%d named, %d slots), want %v",
				step, order, len(h.slot), len(h.keys), model)
		}
		for _, key := range model {
			if i := h.find(key); i < 0 || h.keys[i] != key {
				t.Fatalf("step %d: %v is not named by its slot", step, key)
			}
		}
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
