package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"pdl/internal/diff"
	"pdl/internal/flash"
	"pdl/internal/flash/filedev"
	"pdl/internal/ftl"
	"pdl/internal/ftltest"
)

// Page validity is DRAM state: recovery, which arbitrates by time stamp and
// by the base each differential names, neither needs obsolete flags nor
// writes any. TestSim holds that on every image it recovers; the tests of
// this file on a hand-built lost-base shape over two restarts and on an
// image an older store left.

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

// TestRecoverQuarantinesAtEveryRestart is the lost-base crash shape of
// TestIntegrityRecoveryPoisonTS with one more fact: the differential
// computed against the lost base shares its page with another pid's live
// one, so the page stays valid. A recovery that set the quarantined base
// obsolete in flash left the next one no trace of it, and the next one
// adopted the differential onto the older survivor. Quarantine lives in
// DRAM now: every restart sees the corrupt page, refuses the differential
// that names it and raises the counter. The pid's next write is an ordinary
// differential naming the survivor, and it outlives the next restart, which
// still finds the corrupt page and the refused differential.
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
		{PID: 0, TS: 30, Base: 20, Ranges: []diff.Range{{Off: 0, Data: []byte{0xAA, 0xBB, 0xCC, 0xDD}}}},
		{PID: 1, TS: 31, Base: 5, Ranges: []diff.Range{{Off: 8, Data: []byte{1, 2, 3, 4}}}},
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

	// The survivor is written on: the write goes the differential route,
	// naming the survivor, and must outlive the next restart.
	next := append([]byte(nil), oldBase...)
	next[100] ^= 0xFF
	if err := s.WritePage(0, next); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if e, tel := entryOf(s, 0), s.Telemetry(); e.base != 0 || e.dif == flash.NilPPN || tel.NewBasePages != 0 {
		t.Fatalf("the write after recovery left pid 0 at %+v with %d new base pages, want a differential on the ts-10 base", e, tel.NewBasePages)
	}
	r, err := Recover(dev, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e := entryOf(r, 0); e.base != 0 || e.dif == flash.NilPPN {
		t.Fatalf("the next restart recovered pid 0 to %+v, want the differential on the ts-10 base", e)
	}
	mustReadEqual(t, r, 0, next)
	mustReadEqual(t, r, 1, want1)
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
				if ts > baseTS {
					d.Base = baseTS
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
