package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/faultdev"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// faultedStore builds a store over a fault-injecting wrapper of a fresh
// emulator chip, loads numPages pages of deterministic content, and
// flushes so every pid has a durable base page.
func faultedStore(t *testing.T, numBlocks, numPages int, opts Options) (*Store, *faultdev.Device, [][]byte) {
	t.Helper()
	fd := faultdev.Wrap(flash.NewChip(ftltest.SmallParams(numBlocks)))
	s, err := New(fd, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	shadow := loadInto(t, s, numPages)
	return s, fd, shadow
}

func loadInto(t *testing.T, s *Store, numPages int) [][]byte {
	t.Helper()
	size := s.params.DataSize
	shadow := make([][]byte, numPages)
	rng := rand.New(rand.NewSource(11))
	for pid := 0; pid < numPages; pid++ {
		shadow[pid] = make([]byte, size)
		rng.Read(shadow[pid])
		if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return shadow
}

// rewriteSector flips every byte of one 256-byte sector of the shadow and
// reflects the page, so the resulting differential covers that sector
// exactly.
func rewriteSector(t *testing.T, s *Store, shadow [][]byte, pid uint32, sector int) {
	t.Helper()
	for i := sector * 256; i < (sector+1)*256; i++ {
		shadow[pid][i] ^= 0x5A
	}
	if err := s.WritePage(pid, shadow[pid]); err != nil {
		t.Fatal(err)
	}
}

func entryOf(s *Store, pid uint32) pageEntry {
	e, _, _, _ := s.mt.snapshot(pid)
	return e
}

func mustReadEqual(t *testing.T, s *Store, pid uint32, want []byte) {
	t.Helper()
	buf := make([]byte, len(want))
	if err := s.ReadPage(pid, buf); err != nil {
		t.Fatalf("ReadPage(%d): %v", pid, err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("pid %d read does not match shadow", pid)
	}
}

func TestIntegritySingleBitFlipCorrects(t *testing.T) {
	s, fd, shadow := faultedStore(t, 16, 8, Options{})
	e := entryOf(s, 3)
	fd.Inject(faultdev.Fault{PPN: e.base, Kind: faultdev.BitFlip, Off: 100, Bit: 3})
	mustReadEqual(t, s, 3, shadow[3])
	if tel := s.Telemetry(); tel.EccCorrectedBits == 0 {
		t.Error("EccCorrectedBits = 0 after a corrected read")
	} else if tel.PagesHealed != 0 || tel.UnrecoverablePages != 0 {
		t.Errorf("single-bit correction counted as heal/loss: %+v", tel)
	}
}

func TestIntegrityHealFromBufferedDiff(t *testing.T) {
	s, fd, shadow := faultedStore(t, 16, 8, Options{})
	e := entryOf(s, 2)
	rewriteSector(t, s, shadow, 2, 1) // buffered differential covering sector 1
	if s.WriteBufferLen() == 0 {
		t.Fatal("update unexpectedly not buffered")
	}
	fd.Inject(faultdev.Fault{PPN: e.base, Kind: faultdev.SectorCorrupt, Off: 256})
	mustReadEqual(t, s, 2, shadow[2])
	if tel := s.Telemetry(); tel.PagesHealed == 0 {
		t.Error("PagesHealed = 0 after a buffered-diff heal")
	}
	// The heal is transient (the buffered differential is the only delta
	// against the lost base); the page keeps reading correctly either way.
	mustReadEqual(t, s, 2, shadow[2])
}

func TestIntegrityHealFromFlushedDiffIsDurable(t *testing.T) {
	s, fd, shadow := faultedStore(t, 16, 8, Options{})
	e := entryOf(s, 4)
	rewriteSector(t, s, shadow, 4, 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if entryOf(s, 4).dif == flash.NilPPN {
		t.Fatal("expected a flushed differential page")
	}
	fd.Inject(faultdev.Fault{PPN: e.base, Kind: faultdev.SectorCorrupt, Off: 256})
	mustReadEqual(t, s, 4, shadow[4])
	if tel := s.Telemetry(); tel.PagesHealed == 0 {
		t.Error("PagesHealed = 0 after a flushed-diff heal")
	}
	// Durable heal: the mapping moved off the corrupt page onto a freshly
	// written merged base, and the differential link is gone.
	healed := entryOf(s, 4)
	if healed.base == e.base {
		t.Error("mapping still points at the corrupt base page")
	}
	if healed.dif != flash.NilPPN {
		t.Error("healed page still carries a differential link")
	}
	mustReadEqual(t, s, 4, shadow[4])
	// And the healed state survives a full-scan recovery.
	r, err := Recover(s.dev, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustReadEqual(t, r, 4, shadow[4])
}

func TestIntegrityCorruptBaseTypedError(t *testing.T) {
	s, fd, shadow := faultedStore(t, 16, 8, Options{})
	// Sector 0 is corrupted but the only redundancy (a differential)
	// covers sector 1: healing must refuse and fail loudly.
	e := entryOf(s, 5)
	rewriteSector(t, s, shadow, 5, 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fd.Inject(faultdev.Fault{PPN: e.base, Kind: faultdev.SectorCorrupt, Off: 0})
	buf := make([]byte, s.params.DataSize)
	err := s.ReadPage(5, buf)
	var pe *ftl.PageError
	if !errors.As(err, &pe) {
		t.Fatalf("ReadPage = %v, want *ftl.PageError", err)
	}
	if pe.Kind != ftl.CorruptBase || pe.PID != 5 || pe.PPN != e.base {
		t.Fatalf("PageError = %+v", pe)
	}
	if tel := s.Telemetry(); tel.UnrecoverablePages == 0 {
		t.Error("UnrecoverablePages = 0 after a typed failure")
	}
	// A page with no differential at all fails the same way.
	e7 := entryOf(s, 7)
	fd.Inject(faultdev.Fault{PPN: e7.base, Kind: faultdev.PageLoss})
	if err := s.ReadPage(7, buf); !errors.As(err, &pe) || pe.Kind != ftl.CorruptBase {
		t.Fatalf("ReadPage after page loss = %v, want CorruptBase", err)
	}
}

// TestIntegrityCorruptDiffTypedError reads a pid whose differential page is
// uncorrectable and whose record no cache holds: with the cache off, and with
// it on over a recovered store (the flush cached the record it wrote, which
// would serve as a redundant source), where the read is one cache miss.
func TestIntegrityCorruptDiffTypedError(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
	}{{"cache off", Options{DiffCachePages: DiffCacheOff}}, {"cache on", Options{}}} {
		t.Run(c.name, func(t *testing.T) {
			s, fd, shadow := faultedStore(t, 16, 8, c.opts)
			rewriteSector(t, s, shadow, 1, 1)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if s.DiffCacheEnabled() {
				var err error
				if s, err = Recover(fd, 8, c.opts); err != nil {
					t.Fatal(err)
				}
			}
			e := entryOf(s, 1)
			if e.dif == flash.NilPPN {
				t.Fatal("expected a flushed differential page")
			}
			fd.Inject(faultdev.Fault{PPN: e.dif, Kind: faultdev.SectorCorrupt, Off: 0})
			before := s.Telemetry()
			err := s.ReadPage(1, make([]byte, s.params.DataSize))
			var pe *ftl.PageError
			if !errors.As(err, &pe) {
				t.Fatalf("ReadPage = %v, want *ftl.PageError", err)
			}
			if pe.Kind != ftl.CorruptDiff || pe.PID != 1 || pe.PPN != e.dif {
				t.Fatalf("PageError = %+v", pe)
			}
			tel := s.Telemetry()
			want := int64(0)
			if s.DiffCacheEnabled() {
				want = 1
			}
			if got := tel.DiffCacheMisses - before.DiffCacheMisses; got != want || tel.DiffCacheHits != before.DiffCacheHits {
				t.Errorf("the read counted %d misses and %d hits, want %d and 0", got, tel.DiffCacheHits-before.DiffCacheHits, want)
			}
		})
	}
}

func TestIntegrityWritePageHealsByOverwrite(t *testing.T) {
	s, fd, shadow := faultedStore(t, 16, 8, Options{})
	e := entryOf(s, 6)
	fd.Inject(faultdev.Fault{PPN: e.base, Kind: faultdev.SectorCorrupt, Off: 256})
	// A foreground write holds the complete new image: the corrupt base is
	// simply replaced, whatever the damage.
	shadow[6][10] ^= 0xFF
	if err := s.WritePage(6, shadow[6]); err != nil {
		t.Fatalf("WritePage over a corrupt base: %v", err)
	}
	if tel := s.Telemetry(); tel.PagesHealed == 0 {
		t.Error("PagesHealed = 0 after heal-by-overwrite")
	}
	if entryOf(s, 6).base == e.base {
		t.Error("mapping still points at the corrupt base page")
	}
	mustReadEqual(t, s, 6, shadow[6])
}

// TestWriteFromRetainedImageOverRottenBase bounds what the window of retained
// base images gives up: a write served from it does not look at the flash
// copy, so a base page that rots between a read and the write that follows
// is not healed by overwrite at that write. The next read heals it, if the
// differential covers the rotten sector, or reports it typed; it never
// returns wrong bytes. A base read with uncorrectable sectors is never
// retained, so the write after such a read still heals by overwrite. A held
// image (RetainBase) widens the interval from one call to a pool residency —
// here a hundred reads of other pages, more than a lap of the window — and
// nothing else.
func TestWriteFromRetainedImageOverRottenBase(t *testing.T) {
	flip := func(from, to int) func(page []byte) {
		return func(page []byte) {
			for i := from; i < to; i++ {
				page[i] ^= 0x5A
			}
		}
	}
	for _, c := range []struct {
		name   string
		change func(page []byte)
		heals  bool
		held   bool
	}{
		{"the change covers the rotten sector", flip(256, 512), true, false},
		{"a 2% change elsewhere", flip(40, 50), false, false},
		{"held, the change covers the rotten sector", flip(256, 512), true, true},
		{"held, a 2% change elsewhere", flip(40, 50), false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{}
			if c.held {
				opts.DiffCachePages = 64 * baseImagesShare // 100 reads: past one lap of the window, short of the two that end in dormancy
			}
			s, fd, shadow := faultedStore(t, 16, 8, opts)
			const pid = 3
			mustReadEqual(t, s, pid, shadow[pid])
			if c.held {
				s.RetainBase(pid)
				for other := uint32(0); other < 100; other++ {
					if other%8 != pid {
						mustReadEqual(t, s, other%8, shadow[other%8])
					}
				}
				if tel := s.Telemetry(); tel.BaseHolds != 1 || tel.BaseHoldMisses != 0 || s.bimg.heldLen() != 1 {
					t.Fatalf("%d holds, %d misses, %d images held, want 1, 0 and 1", tel.BaseHolds, tel.BaseHoldMisses, s.bimg.heldLen())
				}
			}
			e := entryOf(s, pid)
			fd.Inject(faultdev.Fault{PPN: e.base, Kind: faultdev.SectorCorrupt, Off: 256})
			c.change(shadow[pid])
			before, reads := s.Telemetry(), fd.Stats().Reads
			if err := s.WritePage(pid, shadow[pid]); err != nil {
				t.Fatalf("WritePage: %v", err)
			}
			tel := s.Telemetry()
			if got := fd.Stats().Reads - reads; got != 0 || tel.WriteBaseHits-before.WriteBaseHits != 1 {
				t.Fatalf("the write cost %d flash reads and %d hits, want 0 and 1", got, tel.WriteBaseHits-before.WriteBaseHits)
			}
			if entryOf(s, pid).base != e.base || tel.PagesHealed != before.PagesHealed {
				t.Fatal("the write replaced the base page: it looked at the flash copy after all")
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, len(shadow[pid]))
			err := s.ReadPage(pid, buf)
			if c.heals {
				if err != nil || !bytes.Equal(buf, shadow[pid]) {
					t.Fatalf("ReadPage = %v, want the bytes written", err)
				}
				if s.Telemetry().PagesHealed == before.PagesHealed || entryOf(s, pid).base == e.base {
					t.Error("the read did not heal the rotten base page")
				}
				mustReadEqual(t, s, pid, shadow[pid])
				return
			}
			var pe *ftl.PageError
			if !errors.As(err, &pe) || pe.Kind != ftl.CorruptBase || pe.PID != pid || pe.PPN != e.base {
				t.Fatalf("ReadPage = %v, want *ftl.PageError{CorruptBase} for pid %d at %d", err, pid, e.base)
			}
		})
	}

	s, fd, shadow := faultedStore(t, 16, 8, Options{})
	const pid = 6
	e := entryOf(s, pid)
	fd.Inject(faultdev.Fault{PPN: e.base, Kind: faultdev.SectorCorrupt, Off: 256})
	var pe *ftl.PageError
	if err := s.ReadPage(pid, make([]byte, len(shadow[pid]))); !errors.As(err, &pe) || pe.Kind != ftl.CorruptBase {
		t.Fatalf("ReadPage of a corrupt base = %v, want CorruptBase", err)
	}
	if s.bimg.len() != 0 {
		t.Fatal("a base image with uncorrectable sectors was retained")
	}
	before := s.Telemetry()
	shadow[pid][10] ^= 0xFF
	if err := s.WritePage(pid, shadow[pid]); err != nil {
		t.Fatalf("WritePage over a corrupt base: %v", err)
	}
	tel := s.Telemetry()
	if tel.WriteBaseReads-before.WriteBaseReads != 1 || tel.WriteBaseHits != before.WriteBaseHits {
		t.Errorf("the write after the corrupt read: %d base reads and %d hits, want 1 and 0",
			tel.WriteBaseReads-before.WriteBaseReads, tel.WriteBaseHits-before.WriteBaseHits)
	}
	if tel.PagesHealed == before.PagesHealed || entryOf(s, pid).base == e.base {
		t.Error("the write did not heal the corrupt base page by overwrite")
	}
	mustReadEqual(t, s, pid, shadow[pid])
}

func TestIntegrityReadBatchHealsAndFailsTyped(t *testing.T) {
	s, fd, shadow := faultedStore(t, 16, 12, Options{})
	// pid 1: single-bit flip (corrects); pid 2: corrupt base covered by a
	// flushed differential (heals); the rest clean.
	e1, e2 := entryOf(s, 1), entryOf(s, 2)
	rewriteSector(t, s, shadow, 2, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fd.Inject(faultdev.Fault{PPN: e1.base, Kind: faultdev.BitFlip, Off: 40, Bit: 1})
	fd.Inject(faultdev.Fault{PPN: e2.base, Kind: faultdev.SectorCorrupt, Off: 0})
	pids := make([]uint32, 12)
	bufs := make([][]byte, 12)
	for i := range pids {
		pids[i] = uint32(i)
		bufs[i] = make([]byte, s.params.DataSize)
	}
	if err := s.ReadBatch(pids, bufs); err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	for i := range pids {
		if !bytes.Equal(bufs[i], shadow[i]) {
			t.Errorf("pid %d batch read does not match shadow", i)
		}
	}
	if tel := s.Telemetry(); tel.PagesHealed == 0 || tel.EccCorrectedBits == 0 {
		t.Errorf("batch read telemetry: %+v", s.Telemetry())
	}
	// An unhealable pid fails the whole batch with the typed error.
	e3 := entryOf(s, 3)
	fd.Inject(faultdev.Fault{PPN: e3.base, Kind: faultdev.SectorCorrupt, Off: 0})
	var pe *ftl.PageError
	if err := s.ReadBatch(pids, bufs); !errors.As(err, &pe) || pe.Kind != ftl.CorruptBase {
		t.Fatalf("ReadBatch with unhealable pid = %v, want CorruptBase", err)
	}
}

func TestIntegrityGCCompactionRescue(t *testing.T) {
	opts := Options{}
	s, fd, shadow := faultedStore(t, 16, 8, opts)
	base := map[uint32][]byte{3: bytes.Clone(shadow[3]), 5: bytes.Clone(shadow[5])}
	rewriteSector(t, s, shadow, 3, 1)
	shadow[5][7] ^= 0x5A
	if err := s.WritePage(5, shadow[5]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	e := entryOf(s, 3)
	if e.dif == flash.NilPPN || entryOf(s, 5).dif != e.dif {
		t.Fatal("expected pids 3 and 5 to share one flushed differential page")
	}
	// A second store over the same flash starts with an empty cache; its two
	// reads cache the record of pid 3 and not the one of pid 5.
	half, err := Recover(fd, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustReadEqual(t, half, 3, shadow[3])
	mustReadEqual(t, half, 3, shadow[3])

	fd.Inject(faultdev.Fault{PPN: e.dif, Kind: faultdev.SectorCorrupt, Off: 0})

	// The flush put both records in the first store's cache: the page is
	// rebuilt from them, and foreground reads never notice the loss.
	recs, n, err := s.validDifferentials(e.dif, nil)
	if err != nil {
		t.Fatalf("validDifferentials with every record cached: %v", err)
	}
	ds := diff.DecodeAll(recs)
	if n != 2 || len(ds) != 2 || ds[0].PID+ds[1].PID != 8 {
		t.Fatalf("rescued %d differentials = %+v", n, ds)
	}
	for _, d := range ds {
		page := base[d.PID]
		if err := d.Apply(page); err != nil || !bytes.Equal(page, shadow[d.PID]) {
			t.Fatalf("rescued differential of pid %d does not rebuild the page (%v)", d.PID, err)
		}
	}
	if tel := s.Telemetry(); tel.PagesHealed == 0 {
		t.Error("PagesHealed = 0 after a compaction rescue")
	}
	mustReadEqual(t, s, 3, shadow[3])
	mustReadEqual(t, s, 5, shadow[5])

	// With one of the two records missing the collection must fail loudly,
	// although the cached one still serves its pid.
	var pe *ftl.PageError
	if _, _, err := half.validDifferentials(e.dif, nil); !errors.As(err, &pe) || pe.Kind != ftl.CorruptDiff {
		t.Fatalf("validDifferentials with a record missing = %v, want CorruptDiff", err)
	}
	if tel := half.Telemetry(); tel.UnrecoverablePages == 0 {
		t.Error("UnrecoverablePages = 0 after a failed rescue")
	}
	mustReadEqual(t, half, 3, shadow[3])
	if err := half.ReadPage(5, make([]byte, len(shadow[5]))); !errors.As(err, &pe) || pe.Kind != ftl.CorruptDiff {
		t.Fatalf("ReadPage of the uncached pid = %v, want CorruptDiff", err)
	}
}

func TestIntegrityRecoveryQuarantine(t *testing.T) {
	s, fd, shadow := faultedStore(t, 16, 8, Options{})
	eBit, eSec, eHdr := entryOf(s, 1), entryOf(s, 2), entryOf(s, 3)
	fd.Inject(faultdev.Fault{PPN: eBit.base, Kind: faultdev.BitFlip, Off: 77, Bit: 6})
	fd.Inject(faultdev.Fault{PPN: eSec.base, Kind: faultdev.SectorCorrupt, Off: 256})
	// Offset 4 lands in the header's PID field: the checksum must catch it.
	fd.Inject(faultdev.Fault{PPN: eHdr.base, Kind: faultdev.SpareCorrupt, Off: 4})

	r, err := Recover(fd, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The bit-flipped page recovers byte-identically; the corrupt pages
	// are quarantined — their pids read as never written, never as wrong
	// bytes — and every untouched pid is intact.
	for pid := 0; pid < 8; pid++ {
		buf := make([]byte, r.params.DataSize)
		err := r.ReadPage(uint32(pid), buf)
		switch pid {
		case 2, 3:
			if !errors.Is(err, ftl.ErrNotWritten) {
				t.Errorf("quarantined pid %d: err = %v, want ErrNotWritten", pid, err)
			}
		default:
			if err != nil {
				t.Errorf("pid %d: %v", pid, err)
			} else if !bytes.Equal(buf, shadow[pid]) {
				t.Errorf("pid %d recovered with wrong content", pid)
			}
		}
	}
	tel := r.Telemetry()
	if tel.EccCorrectedBits == 0 {
		t.Error("recovery corrected no bits")
	}
	if tel.UnrecoverablePages == 0 {
		t.Error("recovery quarantined no uncorrectable page")
	}
	if tel.HeaderChecksumFailures == 0 {
		t.Error("recovery caught no header checksum failure")
	}
	// Idempotence: recovering again (the quarantined pages are still there,
	// unmarked, and are quarantined again) reproduces the same state.
	r2, err := Recover(fd, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 8; pid++ {
		buf := make([]byte, r2.params.DataSize)
		err := r2.ReadPage(uint32(pid), buf)
		if pid == 2 || pid == 3 {
			if !errors.Is(err, ftl.ErrNotWritten) {
				t.Errorf("re-recovery pid %d: err = %v", pid, err)
			}
		} else if err != nil || !bytes.Equal(buf, shadow[pid]) {
			t.Errorf("re-recovery pid %d diverged: %v", pid, err)
		}
	}
}

// TestIntegrityRecoveryPoisonTS crafts the dangerous crash shape by hand:
// two base pages for one pid in flash (a superseded base page stays there,
// unmarked, until its block is collected) plus a differential computed
// against the NEWER one. When the
// newer base is lost to corruption, recovery must NOT replay the
// differential onto the older survivor — that would fabricate content that
// never existed.
func TestIntegrityRecoveryPoisonTS(t *testing.T) {
	p := ftltest.SmallParams(8)
	fd := faultdev.Wrap(flash.NewChip(p))

	oldBase := make([]byte, p.DataSize) // content A, ts 10
	newBase := make([]byte, p.DataSize) // content B, ts 20
	for i := range oldBase {
		oldBase[i] = byte(i)
		newBase[i] = byte(i) ^ 0x0F
	}
	programRaw(t, fd, 0, oldBase, ftl.Header{Type: ftl.TypeBase, PID: 0, TS: 10, Seq: 1})
	programRaw(t, fd, 1, newBase, ftl.Header{Type: ftl.TypeBase, PID: 0, TS: 20, Seq: 1})
	// The differential (ts 30) patches bytes 0..3 of the NEW base.
	d := diff.Differential{PID: 0, TS: 30, Ranges: []diff.Range{{Off: 0, Data: []byte{0xAA, 0xBB, 0xCC, 0xDD}}}}
	img := d.AppendTo(nil)
	for len(img) < p.DataSize {
		img = append(img, 0xFF)
	}
	programRaw(t, fd, 2, img, ftl.Header{Type: ftl.TypeDiff, PID: ftl.NoPID, TS: 30, Seq: 1})

	fd.Inject(faultdev.Fault{PPN: 1, Kind: faultdev.SectorCorrupt, Off: 0})
	s, err := Recover(fd, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := entryOf(s, 0)
	if e.base != 0 {
		t.Fatalf("recovered base = %d, want the ts-10 survivor at ppn 0", e.base)
	}
	if e.dif != flash.NilPPN {
		t.Fatal("poisoned differential was adopted — stale-base fabrication")
	}
	mustReadEqual(t, s, 0, oldBase)
}

// TestIntegrityFailedCollectionKeepsDiffCounts: a collection that fails
// after it has gathered a differential page's survivors (here: the typed
// error of a later, corrupt page of the same victim) must leave that
// page's valid count alone — the mappings still point at it. Forgetting
// the count made the next superseded record count the page obsolete with a
// live differential still in it, and the next successful collection of
// the block skipped the page and erased it.
func TestIntegrityFailedCollectionKeepsDiffCounts(t *testing.T) {
	s, fd, shadow := faultedStore(t, 16, 8, Options{DiffCachePages: DiffCacheOff})
	// touch changes 16 bytes of a page, a differential small enough for
	// two to share a differential page.
	touch := func(pid uint32, off int) {
		t.Helper()
		for i := off; i < off+16; i++ {
			shadow[pid][i] ^= 0x5A
		}
		if err := s.WritePage(pid, shadow[pid]); err != nil {
			t.Fatal(err)
		}
	}
	// Page A holds the differentials of pids 1 and 2, page B of pid 3.
	touch(1, 0)
	touch(2, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	touch(3, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	a, b := entryOf(s, 1).dif, entryOf(s, 3).dif
	blk := s.params.BlockOf(a)
	if a == flash.NilPPN || entryOf(s, 2).dif != a || b == flash.NilPPN || b == a || s.params.BlockOf(b) != blk {
		t.Fatalf("layout: pid 1 -> %d, pid 2 -> %d, pid 3 -> %d, want two pages of one block",
			a, entryOf(s, 2).dif, b)
	}

	// The collection of their block fails on B, after A was gathered.
	fd.Inject(faultdev.Fault{PPN: b, Kind: faultdev.SectorCorrupt, Off: 0})
	var pe *ftl.PageError
	if err := s.relocate(blk); !errors.As(err, &pe) || pe.Kind != ftl.CorruptDiff {
		t.Fatalf("relocate = %v, want CorruptDiff", err)
	}
	if got := s.mt.diffCount(a); got != 2 {
		t.Fatalf("valid count of page %d after the failed collection = %d, want 2", a, got)
	}

	// Supersede pid 1 (A keeps pid 2's differential) and pid 3 (the corrupt
	// page dies), then collect the block for real.
	touch(1, 64)
	touch(3, 64)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.mt.diffCount(a); got != 1 {
		t.Fatalf("valid count of page %d = %d, want 1 (pid 2)", a, got)
	}
	// Fill the open differential block (each flush supersedes the one
	// before), so that the victim scan sees it.
	for i := 0; s.alloc.BlockStats(blk).Written < s.params.PagesPerBlock; i++ {
		touch(3, 128+16*i)
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
	for pid := range shadow {
		mustReadEqual(t, s, uint32(pid), shadow[pid])
	}
}
