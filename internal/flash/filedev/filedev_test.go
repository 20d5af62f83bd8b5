package filedev

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pdl/internal/flash"
)

func testParams() flash.Params {
	p := flash.DefaultParams()
	p.NumBlocks = 8
	p.PagesPerBlock = 8
	p.DataSize = 256
	p.SpareSize = 16
	return p
}

func openNew(t *testing.T, opts Options) *Device {
	t.Helper()
	if opts.Params == (flash.Params{}) {
		opts.Params = testParams()
	}
	d, err := Open(filepath.Join(t.TempDir(), "flash.img"), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func erased(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0xFF
	}
	return b
}

func TestFreshDeviceIsErased(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	data := make([]byte, p.DataSize)
	spare := make([]byte, p.SpareSize)
	for _, ppn := range []flash.PPN{0, flash.PPN(p.NumPages() - 1), 17} {
		if err := d.Read(ppn, data, spare); err != nil {
			t.Fatalf("read ppn %d: %v", ppn, err)
		}
		if !bytes.Equal(data, erased(p.DataSize)) || !bytes.Equal(spare, erased(p.SpareSize)) {
			t.Fatalf("ppn %d not erased on a fresh device", ppn)
		}
	}
}

func TestProgramReadBack(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	data := make([]byte, p.DataSize)
	spare := erased(p.SpareSize)
	for i := range data {
		data[i] = byte(i)
	}
	spare[0] = 0xB0
	if err := d.Program(3, data, spare); err != nil {
		t.Fatal(err)
	}
	gotD := make([]byte, p.DataSize)
	gotS := make([]byte, p.SpareSize)
	if err := d.Read(3, gotD, gotS); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotD, data) || !bytes.Equal(gotS, spare) {
		t.Fatal("read-back differs from programmed image")
	}
}

func TestProgramConflict(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	zeroes := make([]byte, p.DataSize) // programs every bit to 0
	if err := d.Program(0, zeroes, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(0, erased(p.DataSize), nil); !errors.Is(err, flash.ErrProgramConflict) {
		t.Fatalf("raising bits: err = %v, want ErrProgramConflict", err)
	}
	// A pure AND re-program of the same image is legal NAND.
	if err := d.Program(0, zeroes, nil); err != nil {
		t.Fatalf("idempotent re-program: %v", err)
	}
}

func TestEraseRestoresBits(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	if err := d.Program(0, make([]byte, p.DataSize), make([]byte, p.SpareSize)); err != nil {
		t.Fatal(err)
	}
	if err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, p.DataSize)
	spare := make([]byte, p.SpareSize)
	if err := d.Read(0, data, spare); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, erased(p.DataSize)) || !bytes.Equal(spare, erased(p.SpareSize)) {
		t.Fatal("erase did not restore the erased state")
	}
	if d.EraseCount(0) != 1 {
		t.Fatalf("EraseCount = %d, want 1", d.EraseCount(0))
	}
}

func TestSpareProgramLimit(t *testing.T) {
	p := testParams()
	p.MaxSparePrograms = 2
	d := openNew(t, Options{Params: p})
	spare := erased(p.SpareSize)
	spare[1] = 0
	if err := d.ProgramSpare(0, spare); err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramSpare(0, spare); err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramSpare(0, spare); !errors.Is(err, flash.ErrSpareProgramLimit) {
		t.Fatalf("third spare program: err = %v, want ErrSpareProgramLimit", err)
	}
	// The limit resets with the erase, and it persists across a reopen.
	if err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramSpare(0, spare); err != nil {
		t.Fatalf("spare program after erase: %v", err)
	}
	path := d.Path()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.ProgramSpare(0, spare); err != nil {
		t.Fatal(err)
	}
	if err := d2.ProgramSpare(0, spare); !errors.Is(err, flash.ErrSpareProgramLimit) {
		t.Fatalf("limit forgotten across reopen: err = %v", err)
	}
}

func TestProgramPartial(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	chunk := []byte{0x00, 0x0F, 0xF0}
	if err := d.ProgramPartial(5, 10, chunk); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, p.DataSize)
	if err := d.ReadData(5, data); err != nil {
		t.Fatal(err)
	}
	want := erased(p.DataSize)
	copy(want[10:], chunk)
	if !bytes.Equal(data, want) {
		t.Fatal("partial program not reflected")
	}
	if err := d.ProgramPartial(5, p.DataSize-1, []byte{0, 0}); !errors.Is(err, flash.ErrOutOfRange) {
		t.Fatalf("overrun: err = %v, want ErrOutOfRange", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flash.img")
	p := testParams()
	d, err := Open(path, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, p.DataSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	spare := erased(p.SpareSize)
	spare[0] = 0xA0
	if err := d.Program(9, data, spare); err != nil {
		t.Fatal(err)
	}
	if err := d.Erase(2); err != nil {
		t.Fatal(err)
	}
	if err := d.MarkBad(7); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.Params() != p {
		t.Fatalf("params not persisted: got %+v", d2.Params())
	}
	gotD := make([]byte, p.DataSize)
	gotS := make([]byte, p.SpareSize)
	if err := d2.Read(9, gotD, gotS); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotD, data) || !bytes.Equal(gotS, spare) {
		t.Fatal("page content lost across reopen")
	}
	if d2.EraseCount(2) != 1 {
		t.Fatalf("erase count lost: %d", d2.EraseCount(2))
	}
	if !d2.IsBad(7) {
		t.Fatal("bad-block flag lost")
	}
}

func TestKillWithoutCloseIsDurable(t *testing.T) {
	// Simulate a killed process: mutate, never Close or Sync, open a
	// second handle on the same path. The device writes straight to the
	// file, so everything must be visible.
	path := filepath.Join(t.TempDir(), "flash.img")
	p := testParams()
	d, err := Open(path, Options{Params: p, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, p.DataSize)
	if err := d.Program(1, data, erased(p.SpareSize)); err != nil {
		t.Fatal(err)
	}
	// Abandon d without Close.
	d2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make([]byte, p.DataSize)
	if err := d2.ReadData(1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("write lost without Close")
	}
}

func TestOpenValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "new.img"), Options{}); !errors.Is(err, ErrNeedParams) {
		t.Fatalf("new file without params: err = %v, want ErrNeedParams", err)
	}
	junk := filepath.Join(dir, "junk.img")
	if err := os.WriteFile(junk, bytes.Repeat([]byte{0x42}, headerSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk, Options{}); !errors.Is(err, ErrFormat) {
		t.Fatalf("junk file: err = %v, want ErrFormat", err)
	}
	good := filepath.Join(dir, "good.img")
	d, err := Open(good, Options{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	wrong := testParams()
	wrong.NumBlocks++
	if _, err := Open(good, Options{Params: wrong}); !errors.Is(err, ErrGeometry) {
		t.Fatalf("mismatched geometry: err = %v, want ErrGeometry", err)
	}
	// A file cut inside its page region is refused: its missing pages
	// cannot be read through the mapping.
	st, err := os.Stat(good)
	if err != nil {
		t.Fatal(err)
	}
	recordSize := int64(testParams().DataSize + testParams().SpareSize)
	if err := os.Truncate(good, st.Size()-3*recordSize); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(good, Options{}); !errors.Is(err, ErrFormat) {
		t.Fatalf("file three records short: err = %v, want ErrFormat", err)
	}
}

func TestClosedDevice(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := d.ReadData(0, make([]byte, p.DataSize)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: err = %v, want ErrClosed", err)
	}
	if err := d.Read(1, make([]byte, p.DataSize), make([]byte, p.SpareSize)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read of data and spare after close: err = %v, want ErrClosed", err)
	}
	if err := d.Erase(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("erase after close: err = %v, want ErrClosed", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	if err := d.Program(0, make([]byte, p.DataSize), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadData(0, make([]byte, p.DataSize)); err != nil {
		t.Fatal(err)
	}
	if err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	want := flash.Stats{Reads: 1, Writes: 1, Erases: 1,
		TimeMicros: p.ReadMicros + p.WriteMicros + p.EraseMicros}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	d.ResetStats()
	if d.Stats() != (flash.Stats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func TestSyncAlwaysPolicy(t *testing.T) {
	p := testParams()
	d := openNew(t, Options{Params: p, Sync: SyncAlways})
	if err := d.Program(0, make([]byte, p.DataSize), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestBadBlockRejectsOps(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	if err := d.MarkBad(1); err != nil {
		t.Fatal(err)
	}
	ppn := p.PPNOf(1, 0)
	if err := d.ReadData(ppn, make([]byte, p.DataSize)); !errors.Is(err, flash.ErrBadBlock) {
		t.Fatalf("read on bad block: %v", err)
	}
	if err := d.Program(ppn, make([]byte, p.DataSize), nil); !errors.Is(err, flash.ErrBadBlock) {
		t.Fatalf("program on bad block: %v", err)
	}
	if err := d.Erase(1); !errors.Is(err, flash.ErrBadBlock) {
		t.Fatalf("erase of bad block: %v", err)
	}
}

func TestResetReinitializes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flash.img")
	p := testParams()
	d, err := Open(path, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Program(0, make([]byte, p.DataSize), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Without Reset a fresh store cannot program over the dirty page.
	d2, err := Open(path, Options{Params: p, Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	data := make([]byte, p.DataSize)
	if err := d2.ReadData(0, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, erased(p.DataSize)) {
		t.Fatal("Reset did not erase existing contents")
	}
	if err := d2.Program(0, make([]byte, p.DataSize), nil); err != nil {
		t.Fatalf("program after reset: %v", err)
	}
}
