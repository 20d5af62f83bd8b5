package core

import (
	"bytes"
	"math/rand"
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
	if newBaseImages(0) != nil {
		t.Fatal("a window of no images is not off")
	}
	b := newBaseImages(3)
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
	b := newBaseImages(n)
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

// TestBaseImagesServeTheWriteThatFollowsARead: a write whose page was read
// within the window reads no base page, single and batched alike, and a
// batch one page wider than the window reads exactly one.
func TestBaseImagesServeTheWriteThatFollowsARead(t *testing.T) {
	const numPages = 80
	s, _, shadow := diffStore(t, Options{MaxDifferentialSize: 128}, 24, numPages)
	if s.bimg == nil || s.bimg.n != defaultDiffCachePages/baseImagesShare {
		t.Fatalf("default options built the window %+v", s.bimg)
	}
	window := s.bimg.n
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
			t.Fatalf("DiffCachePages %d built a window", sub.bimg.n*baseImagesShare)
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
	s, err := New(chip, numPages, Options{MaxDifferentialSize: 128, ReserveBlocks: 2})
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
	model = make([][]byte, numPages)
	for pid := range model {
		model[pid] = make([]byte, size)
		rng.Read(model[pid])
		if err := s.WritePage(uint32(pid), model[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	loaded = s.Telemetry()
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

// TestBaseImagesOnAndOffAreOneStore is the equivalence oracle and the count
// gate of the window: the same seeded update loop on a store with default
// options and on one with DiffCacheOff, on each backend, leaves
// byte-identical pages behind the same programs and erases, every flash read
// the first store did not make is accounted for by a hit, and in the loop's
// steady state the default store reads (next to) no base page for a write
// where the other reads one for every write.
func TestBaseImagesOnAndOffAreOneStore(t *testing.T) {
	const numBlocks, rounds = 12, 150
	params := ftltest.SmallParams(numBlocks)
	numPages := numBlocks * params.PagesPerBlock / 2
	for _, backend := range []struct {
		name string
		dev  ftltest.DeviceFactory
	}{{"emu", ftltest.EmulatorDevice}, {"filedev", fileDevice}} {
		t.Run(backend.name, func(t *testing.T) {
			run := func(cachePages int) (*Store, Telemetry, [][]byte) {
				s, err := New(backend.dev(t, params), numPages,
					Options{MaxDifferentialSize: 128, ReserveBlocks: 2, DiffCachePages: cachePages})
				if err != nil {
					t.Fatal(err)
				}
				loaded, model := paperLoop(t, s, numPages, rounds)
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
			if r := share(onTel, onLoaded); r > 0.02 {
				t.Errorf("defaults: %.3f base page reads per logical write, want at most 0.02", r)
			}
			if r := share(offTel, offLoaded); r < 0.95 || r > 1 {
				t.Errorf("DiffCacheOff: %.3f base page reads per logical write, want the paper's 1", r)
			}
		})
	}
}
