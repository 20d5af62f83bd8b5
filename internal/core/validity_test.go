package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/filedev"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// Page validity is DRAM state: the tests of this file pin down what that
// leaves in flash (no obsolete flag but one), and that recovery, which
// arbitrates by time stamp, neither needs the flags nor writes any.

// probeDev is a flash.Device that counts the spare programs reaching the
// device under it, and serves the next Read of page flaky with two flipped
// bits in its second ECC sector: a transient, uncorrectable read fault.
type probeDev struct {
	flash.Device
	spares atomic.Int64
	flaky  flash.PPN
}

func newProbeDev(dev flash.Device) *probeDev { return &probeDev{Device: dev, flaky: flash.NilPPN} }

func (d *probeDev) ProgramSpare(ppn flash.PPN, spare []byte) error {
	d.spares.Add(1)
	return d.Device.ProgramSpare(ppn, spare)
}

func (d *probeDev) Read(ppn flash.PPN, data, spare []byte) error {
	err := d.Device.Read(ppn, data, spare)
	if ppn == d.flaky {
		d.flaky = flash.NilPPN
		data[256] ^= 0x01
		data[511] ^= 0x80
	}
	return err
}

// fileDevice is the ftltest.DeviceFactory of a file-backed device in the
// test's temporary directory.
func fileDevice(t *testing.T, p flash.Params) flash.Device {
	t.Helper()
	d, err := filedev.Open(filepath.Join(t.TempDir(), "flash.pdl"), filedev.Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// programRaw programs one hand-made page: data under header h, sealed.
func programRaw(t *testing.T, dev flash.Device, ppn flash.PPN, data []byte, h ftl.Header) {
	t.Helper()
	spare := make([]byte, dev.Params().SpareSize)
	ftl.EncodeHeaderInto(h, spare)
	ftl.SealSpare(data, spare)
	if err := dev.Program(ppn, data, spare); err != nil {
		t.Fatal(err)
	}
}

// encodeDiffPage makes page the image of a differential page holding ds.
func encodeDiffPage(page []byte, ds []diff.Differential) {
	var recs []byte
	for _, d := range ds {
		recs = d.AppendTo(recs)
	}
	packDiffPage(page, recs)
}

// flaggedPages returns the pages of dev whose obsolete flag is programmed.
func flaggedPages(t *testing.T, dev flash.Device) []flash.PPN {
	t.Helper()
	var out []flash.PPN
	spare := make([]byte, dev.Params().SpareSize)
	for ppn := flash.PPN(0); int(ppn) < dev.Params().NumPages(); ppn++ {
		if err := dev.ReadSpare(ppn, spare); err != nil {
			t.Fatal(err)
		}
		if ftl.DecodeHeader(spare).Obsolete {
			out = append(out, ppn)
		}
	}
	return out
}

// TestRecoverIsReadOnlyAndIdempotent recovers, twice, an image holding every
// kind of useless page there is — superseded base pages and dead
// differential pages nobody marked, a torn program, an uncorrectably corrupt
// base page — on each backend: recovery programs and erases nothing, and the
// second run rebuilds exactly the state of the first.
func TestRecoverIsReadOnlyAndIdempotent(t *testing.T) {
	backends := []struct {
		name string
		dev  ftltest.DeviceFactory
	}{
		{"emu", ftltest.EmulatorDevice},
		{"filedev", fileDevice},
		{"striped2", ftltest.StripedDevice(2, ftltest.EmulatorDevice)},
	}
	const numPages = 32
	opts := Options{}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			dev := b.dev(t, ftltest.SmallParams(12))
			p := dev.Params()
			s, err := New(dev, numPages, opts)
			if err != nil {
				t.Fatal(err)
			}
			shadow := loadInto(t, s, numPages)
			runWorkload(t, s, shadow, 1500, 21, 5)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if s.alloc.GCRuns() == 0 {
				t.Fatal("scenario: the workload never collected a block")
			}
			// A torn program (data landed, spare did not) and a newest base
			// page of pid 5 whose second sector decayed beyond correction.
			torn, err := s.alloc.AllocOn(0)
			if err != nil {
				t.Fatal(err)
			}
			erased := make([]byte, p.SpareSize)
			for i := range erased {
				erased[i] = 0xFF
			}
			if err := dev.Program(torn, shadow[0], erased); err != nil {
				t.Fatal(err)
			}
			corrupt, err := s.alloc.AllocOn(0)
			if err != nil {
				t.Fatal(err)
			}
			spare := make([]byte, p.SpareSize)
			ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeBase, PID: 5, TS: s.nextTS(),
				Seq: s.alloc.SeqOf(p.BlockOf(corrupt))}, spare)
			ftl.SealSpare(shadow[6], spare)
			decayed := append([]byte(nil), shadow[6]...)
			decayed[256] ^= 0x01
			decayed[511] ^= 0x80
			if err := dev.Program(corrupt, decayed, spare); err != nil {
				t.Fatal(err)
			}
			if got := flaggedPages(t, dev); len(got) != 0 {
				t.Fatalf("pages %v carry the obsolete flag; the store programs none", got)
			}

			before := dev.Stats()
			r1, err := Recover(dev, numPages, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := dev.Stats().Sub(before); d.Writes != 0 || d.Erases != 0 {
				t.Fatalf("recovery cost %+v, want reads only", d)
			}
			r2, err := Recover(dev, numPages, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := dev.Stats().Sub(before); d.Writes != 0 || d.Erases != 0 {
				t.Fatalf("two recoveries cost %+v, want reads only", d)
			}
			if snapshotMapping(r1) != snapshotMapping(r2) {
				t.Error("two consecutive recoveries disagree on the mapping table")
			}
			if a, b := r1.ValidDifferentialPages(), r2.ValidDifferentialPages(); a != b {
				t.Errorf("valid differential pages: %d, then %d", a, b)
			}
			useless := 0
			for blk := 0; blk < p.NumBlocks; blk++ {
				a, b := r1.alloc.BlockStats(blk), r2.alloc.BlockStats(blk)
				if a != b {
					t.Errorf("block %d: %+v, then %+v", blk, a, b)
				}
				useless += a.Obsolete
			}
			if useless <= 2 {
				t.Fatalf("scenario: %d useless pages, want stale and dead ones beside the torn and the corrupt page", useless)
			}
			if bs := r1.alloc.BlockStats(p.BlockOf(torn)); bs.Obsolete < 2 {
				t.Errorf("torn and quarantined page not both counted obsolete: %+v", bs)
			}
			if r1.Telemetry().UnrecoverablePages == 0 || r2.Telemetry().UnrecoverablePages == 0 {
				t.Error("a recovery did not quarantine the corrupt base page")
			}
			for pid := 0; pid < numPages; pid++ {
				mustReadEqual(t, r1, uint32(pid), shadow[pid])
				mustReadEqual(t, r2, uint32(pid), shadow[pid])
			}
		})
	}
}

// TestRecoverQuarantinesAtEveryRestart is the poison-TS crash shape of
// TestIntegrityRecoveryPoisonTS with one more fact: the differential
// computed against the lost base shares its page with another pid's live
// one, so the page stays valid. A recovery that set the quarantined base
// obsolete in flash left the next one no trace of it, and the next one
// adopted the differential onto the older survivor. Quarantine lives in
// DRAM now: every restart sees the corrupt page, vetoes the differential and
// raises the counter, and the pid's next write, a whole base page newer than
// all of it, is what retires the wreckage.
func TestRecoverQuarantinesAtEveryRestart(t *testing.T) {
	p := ftltest.SmallParams(8)
	dev := flash.NewChip(p)
	opts := Options{}

	oldBase := make([]byte, p.DataSize) // pid 0, ts 10: the survivor
	newBase := make([]byte, p.DataSize) // pid 0, ts 20: decays
	other := make([]byte, p.DataSize)   // pid 1, ts 5
	for i := range oldBase {
		oldBase[i] = byte(i)
		newBase[i] = byte(i) ^ 0x0F
		other[i] = byte(3 * i)
	}
	programRaw(t, dev, 0, oldBase, ftl.Header{Type: ftl.TypeBase, PID: 0, TS: 10, Seq: 1})
	programRaw(t, dev, 2, other, ftl.Header{Type: ftl.TypeBase, PID: 1, TS: 5, Seq: 1})
	// One differential page: pid 0's record (ts 30) patches the NEW base,
	// pid 1's (ts 31) is live.
	ds := []diff.Differential{
		{PID: 0, TS: 30, Ranges: []diff.Range{{Off: 0, Data: []byte{0xAA, 0xBB, 0xCC, 0xDD}}}},
		{PID: 1, TS: 31, Ranges: []diff.Range{{Off: 8, Data: []byte{1, 2, 3, 4}}}},
	}
	img := make([]byte, p.DataSize)
	encodeDiffPage(img, ds)
	programRaw(t, dev, 3, img, ftl.Header{Type: ftl.TypeDiff, PID: ftl.NoPID, TS: 31, Seq: 1})
	// The new base page, sealed for its content and programmed two bits off.
	spare := make([]byte, p.SpareSize)
	ftl.EncodeHeaderInto(ftl.Header{Type: ftl.TypeBase, PID: 0, TS: 20, Seq: 1}, spare)
	ftl.SealSpare(newBase, spare)
	newBase[0] ^= 0x01
	newBase[255] ^= 0x80
	if err := dev.Program(1, newBase, spare); err != nil {
		t.Fatal(err)
	}
	want1 := append([]byte(nil), other...)
	if err := ds[1].Apply(want1); err != nil {
		t.Fatal(err)
	}

	var s *Store
	for restart := 1; restart <= 2; restart++ {
		var err error
		if s, err = Recover(dev, 4, opts); err != nil {
			t.Fatal(err)
		}
		if e := entryOf(s, 0); e.base != 0 || e.dif != flash.NilPPN {
			t.Fatalf("restart %d: pid 0 recovered to %+v, want the ts-10 survivor alone", restart, e)
		}
		mustReadEqual(t, s, 0, oldBase)
		mustReadEqual(t, s, 1, want1)
		if s.Telemetry().UnrecoverablePages == 0 {
			t.Fatalf("restart %d: the corrupt base page went unnoticed", restart)
		}
	}

	// The survivor is written on: the write must outlive the next restart,
	// which still finds the corrupt page and the vetoed differential.
	next := append([]byte(nil), oldBase...)
	next[100] ^= 0xFF
	if err := s.WritePage(0, next); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if ts := s.mt.baseTS[0]; ts <= 31 {
		t.Fatalf("the write after recovery committed a base page of ts %d, not newer than what flash holds", ts)
	}
	r, err := Recover(dev, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustReadEqual(t, r, 0, next)
	mustReadEqual(t, r, 1, want1)
}

// TestLostHealKeepsItsObsoleteFlag drives the one path on which a dead page
// outranks its live successor by time stamp. A transient read fault makes
// ReadPage heal pid 4 from its flushed differential; the heal's own
// allocation runs the collection that relocates the (by then readable) base
// page, so the pinned commit loses its race and the merged image H, stamped
// newest, is unreachable. Then the pid is written again, reverting the bytes
// the healed differential had changed: the new differential is computed
// against the old base and does not mention them. Unmarked, H would win
// arbitration after a crash and the new differential would be replayed onto
// it; so H is the one page whose obsolete flag the store programs.
func TestLostHealKeepsItsObsoleteFlag(t *testing.T) {
	const numPages, pid = 16, 4
	// Four blocks of 16 pages, two in reserve: the load fills block 0, the
	// flushed differential and 15 whole-page rewrites fill block 1, and the
	// next allocation has to collect block 0, where only pid 4's base page
	// is still valid.
	dev := newProbeDev(flash.NewChip(ftltest.SmallParams(4)))
	opts := Options{}
	s, err := New(dev, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	shadow := loadInto(t, s, numPages)
	rewriteSector(t, s, shadow, pid, 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for other := 0; other < numPages; other++ {
		if other != pid {
			rng.Read(shadow[other])
			if err := s.WritePage(uint32(other), shadow[other]); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := entryOf(s, pid)
	if s.alloc.GCRuns() != 0 || s.alloc.FreeBlocks() != 2 || before.dif == flash.NilPPN {
		t.Fatalf("scenario: %d collections, %d free blocks, pid %d at %+v", s.alloc.GCRuns(), s.alloc.FreeBlocks(), pid, before)
	}

	dev.flaky = before.base
	mustReadEqual(t, s, pid, shadow[pid])
	after := entryOf(s, pid)
	if s.alloc.GCRuns() != 1 || after.base == before.base || after.dif != before.dif {
		t.Fatalf("scenario: the heal's allocation did not relocate the base page: %d collections, pid %d went %+v -> %+v",
			s.alloc.GCRuns(), pid, before, after)
	}
	if n := dev.spares.Load(); n != 1 {
		t.Fatalf("%d spare programs, want 1: the lost heal's obsolete flag", n)
	}
	flagged := flaggedPages(t, dev)
	if len(flagged) != 1 {
		t.Fatalf("flagged pages %v, want the lost heal alone", flagged)
	}
	spare := make([]byte, s.params.SpareSize)
	if err := dev.ReadSpare(flagged[0], spare); err != nil {
		t.Fatal(err)
	}
	if h := ftl.DecodeHeader(spare); h.Type != ftl.TypeBase || h.PID != pid || h.TS <= s.mt.diffTS[pid] {
		t.Fatalf("flagged page %+v is not a base page of pid %d newer than its mapping", h, pid)
	}

	// Revert sector 1 to the base page's bytes and change one byte elsewhere.
	for i := 256; i < 512; i++ {
		shadow[pid][i] ^= 0x5A
	}
	shadow[pid][3] ^= 0xFF
	if err := s.WritePage(pid, shadow[pid]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if e := entryOf(s, pid); e.base != after.base || e.dif == flash.NilPPN {
		t.Fatalf("scenario: the second write did not go the differential route: %+v", e)
	}
	if n := dev.spares.Load(); n != 1 {
		t.Fatalf("%d spare programs after the second write, want still 1", n)
	}
	r, err := Recover(dev, numPages, opts) // kill: the live store is dropped
	if err != nil {
		t.Fatal(err)
	}
	for i := range shadow {
		mustReadEqual(t, r, uint32(i), shadow[i])
	}
	if n := dev.spares.Load(); n != 1 {
		t.Fatalf("%d spare programs after recovery, want still 1", n)
	}
}

// TestMixedRunProgramsNoSpare runs everything that retires pages at once —
// two shards over two channels, background collectors, WriteBatch beside
// WritePage and Flush, whole-page rewrites (Case 3) beside small
// differentials, cross-channel supersedes — until the collectors have erased
// two blocks for every block of the device, and counts the spare programs
// that reached the chips: none. The store it leaves recovers to the model.
func TestMixedRunProgramsNoSpare(t *testing.T) {
	const numPages = 96
	sub := ftltest.SmallParams(16)
	probes := []*probeDev{newProbeDev(flash.NewChip(sub)), newProbeDev(flash.NewChip(sub))}
	dev, err := flash.NewStriped(probes[0], probes[1])
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxDifferentialSize: 64, Shards: 2, BackgroundGC: true}
	s, err := New(dev, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shadow := loadInto(t, s, numPages)

	// The erased-block floor of a channel is never allocated from while the
	// collectors keep up, so "every block" is taken on the average.
	collectedAll := func() bool { return s.alloc.MeanVictimRounds() >= 2 }
	rng := rand.New(rand.NewSource(15))
	size := len(shadow[0])
	update := func(pid int) {
		if rng.Intn(4) == 0 {
			rng.Read(shadow[pid])
		} else {
			off := rng.Intn(size - 8)
			rng.Read(shadow[pid][off : off+8])
		}
	}
	rounds := 0
	for ; rounds < 400 && !collectedAll(); rounds++ {
		batch := make([]ftl.PageWrite, 6)
		for i := range batch {
			pid := (rounds*len(batch) + i) % numPages // distinct within the batch
			update(pid)
			batch[i] = ftl.PageWrite{PID: uint32(pid), Data: shadow[pid]}
		}
		if err := s.WriteBatch(batch); err != nil {
			t.Fatalf("round %d: WriteBatch: %v", rounds, err)
		}
		for i := 0; i < 6; i++ {
			pid := rng.Intn(numPages)
			update(pid)
			if err := s.WritePage(uint32(pid), shadow[pid]); err != nil {
				t.Fatalf("round %d: WritePage: %v", rounds, err)
			}
		}
		if rounds%5 == 4 {
			if err := s.Flush(); err != nil {
				t.Fatalf("round %d: Flush: %v", rounds, err)
			}
		}
	}
	if !collectedAll() {
		t.Fatalf("scenario: %d collections in %d rounds, want two per block", s.alloc.GCRuns(), rounds)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tel := s.Telemetry()
	if tel.BatchWrites == 0 || tel.NewBasePages <= numPages || tel.BufferFlushes == 0 {
		t.Fatalf("scenario: the run missed a path: %+v", tel)
	}
	for pid := range shadow {
		mustReadEqual(t, s, uint32(pid), shadow[pid])
	}
	r, err := Recover(dev, numPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for pid := range shadow {
		mustReadEqual(t, r, uint32(pid), shadow[pid])
	}
	if n := probes[0].spares.Load() + probes[1].spares.Load(); n != 0 {
		t.Fatalf("%d spare programs reached the chips, want none", n)
	}
	if got := flaggedPages(t, dev); len(got) != 0 {
		t.Fatalf("pages %v carry the obsolete flag", got)
	}
}

// TestRecoverOldTaggedImage recovers an image whose base pages carry 0x4F at
// spare byte 22, as a store that routed writes per page left them (the byte
// is reserved now and was a hint no reader consulted): the byte is inside the
// header checksum, so the pages verify; arbitration is by time stamp alone,
// whether the differential linked to such a page is older or newer than it;
// recovery programs nothing; and the next write of such a pid is an ordinary
// differential.
func TestRecoverOldTaggedImage(t *testing.T) {
	for _, b := range []struct {
		name string
		dev  ftltest.DeviceFactory
	}{
		{"emu", ftltest.EmulatorDevice},
		{"filedev", fileDevice},
	} {
		t.Run(b.name, func(t *testing.T) {
			const numPages = 6
			dev := b.dev(t, ftltest.SmallParams(8))
			p := dev.Params()
			spare := make([]byte, p.SpareSize)
			program := func(ppn flash.PPN, data []byte, h ftl.Header) {
				t.Helper()
				ftl.EncodeHeaderInto(h, spare)
				if h.Type == ftl.TypeBase {
					spare[22] = 0x4F
				}
				ftl.SealSpare(data, spare)
				if err := dev.Program(ppn, data, spare); err != nil {
					t.Fatal(err)
				}
			}
			// Block 0: one tagged base page per pid. Block 1: one
			// differential page, whose records for pids 2 and 3 are newer
			// than their base pages and apply, and for pids 4 and 5 older (a
			// whole-page write superseded them) and do not.
			rng := rand.New(rand.NewSource(22))
			model := make([][]byte, numPages)
			var ds []diff.Differential
			var maxTS uint64
			for pid := range model {
				base := make([]byte, p.DataSize)
				rng.Read(base)
				baseTS := uint64(100 * (pid + 1))
				program(p.PPNOf(0, pid), base, ftl.Header{Type: ftl.TypeBase, PID: uint32(pid), TS: baseTS, Seq: 1})
				model[pid] = base
				if pid < 2 {
					continue
				}
				changed := bytes.Clone(base)
				rng.Read(changed[40:56])
				ts := baseTS - 50
				if pid < 4 {
					ts = baseTS + 1000
					model[pid] = changed
				}
				d, err := diff.Compute(uint32(pid), ts, base, changed)
				if err != nil {
					t.Fatal(err)
				}
				ds = append(ds, d)
				maxTS = max(maxTS, ts)
			}
			page := make([]byte, p.DataSize)
			encodeDiffPage(page, ds)
			diffPage := p.PPNOf(1, 0)
			program(diffPage, page, ftl.Header{Type: ftl.TypeDiff, PID: ftl.NoPID, TS: maxTS, Seq: 2})
			for pid := range model {
				if err := dev.ReadSpare(p.PPNOf(0, pid), spare); err != nil {
					t.Fatal(err)
				}
				if ok := ftl.VerifyHeaderChecksum(spare, p.DataSize); spare[22] != 0x4F || !ok {
					t.Fatalf("pid %d: byte 22 = %#02x, header checksum holds = %v", pid, spare[22], ok)
				}
			}

			before := dev.Stats()
			r, err := Recover(dev, numPages, Options{MaxDifferentialSize: 128})
			if err != nil {
				t.Fatal(err)
			}
			if after := dev.Stats(); after.Writes != before.Writes || after.Erases != before.Erases {
				t.Fatalf("recovery cost %d programs and %d erases, want none",
					after.Writes-before.Writes, after.Erases-before.Erases)
			}
			if tel := r.Telemetry(); tel.HeaderChecksumFailures != 0 || tel.UnrecoverablePages != 0 {
				t.Fatalf("recovery quarantined pages of the old image: %+v", tel)
			}
			for pid := range model {
				mustReadEqual(t, r, uint32(pid), model[pid])
				want := flash.NilPPN
				if pid == 2 || pid == 3 {
					want = diffPage
				}
				if e := entryOf(r, uint32(pid)); e.base != p.PPNOf(0, pid) || e.dif != want {
					t.Errorf("pid %d recovered as %+v, want base %d and differential page %d", pid, e, p.PPNOf(0, pid), want)
				}
			}

			model[0][7] ^= 0xFF
			if err := r.WritePage(0, model[0]); err != nil {
				t.Fatal(err)
			}
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			tel := r.Telemetry()
			if e := entryOf(r, 0); tel.NewBasePages != 0 || tel.DiffsWritten != 1 || e.base != p.PPNOf(0, 0) || e.dif == flash.NilPPN {
				t.Fatalf("write of a tagged pid: %d new base pages, %d differentials written, mapping %+v; want an ordinary differential",
					tel.NewBasePages, tel.DiffsWritten, e)
			}
			mustReadEqual(t, r, 0, model[0])
		})
	}
}
