package filedev

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pdl/internal/flash"
)

// pageImage returns a data area and a spare area that differ by seed.
func pageImage(p flash.Params, seed byte) (data, spare []byte) {
	data = make([]byte, p.DataSize)
	for i := range data {
		data[i] = seed ^ byte(i*31)
	}
	spare = erased(p.SpareSize)
	spare[0], spare[1] = seed, ^seed
	return data, spare
}

// expectPage fails unless ppn reads back as data and spare.
func expectPage(t *testing.T, d *Device, ppn flash.PPN, data, spare []byte, what string) {
	t.Helper()
	p := d.Params()
	gotD, gotS := make([]byte, p.DataSize), make([]byte, p.SpareSize)
	if err := d.Read(ppn, gotD, gotS); err != nil {
		t.Fatalf("%s: read ppn %d: %v", what, ppn, err)
	}
	if !bytes.Equal(gotD, data) || !bytes.Equal(gotS, spare) {
		t.Fatalf("%s: ppn %d reads other bytes than it holds", what, ppn)
	}
}

// TestReadSeesEveryMutation: a read comes from the file's mapping while
// every mutation is a write to the file, so each kind of mutation must show
// in the very next read, and again in a reopened device's mapping.
func TestReadSeesEveryMutation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flash.img")
	p := testParams()
	d, err := Open(path, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	type page struct{ data, spare []byte }
	want := map[flash.PPN]page{}
	check := func(what string) {
		t.Helper()
		for ppn, pg := range want {
			expectPage(t, d, ppn, pg.data, pg.spare, what)
		}
	}

	data, spare := pageImage(p, 1)
	if err := d.Program(3, data, spare); err != nil {
		t.Fatal(err)
	}
	want[3] = page{data, spare}
	check("after Program")

	var batch []flash.PageProgram
	for i, ppn := range []flash.PPN{9, 10, 17} {
		data, spare := pageImage(p, byte(10+i))
		batch = append(batch, flash.PageProgram{PPN: ppn, Data: data, Spare: spare})
		want[ppn] = page{data, spare}
	}
	if err := d.ProgramBatch(batch); err != nil {
		t.Fatal(err)
	}
	check("after ProgramBatch")

	// A spare-only program of a programmed page reads it back from the
	// mapping before it writes.
	mark := erased(p.SpareSize)
	mark[2] = 0
	if err := d.ProgramSpare(9, mark); err != nil {
		t.Fatal(err)
	}
	pg := want[9]
	pg.spare = bytes.Clone(pg.spare)
	pg.spare[2] = 0
	want[9] = pg
	check("after ProgramSpare")

	if err := d.Erase(2); err != nil { // pages 16 to 23
		t.Fatal(err)
	}
	want[17] = page{erased(p.DataSize), erased(p.SpareSize)}
	check("after Erase")

	// A full program over the page an erase made fresh again, and one over
	// a programmed page, which reads it back and merges.
	data, spare = pageImage(p, 20)
	if err := d.Program(17, data, spare); err != nil {
		t.Fatal(err)
	}
	want[17] = page{data, spare}
	zeros := make([]byte, p.DataSize)
	if err := d.Program(3, zeros, nil); err != nil {
		t.Fatal(err)
	}
	want[3] = page{zeros, want[3].spare}
	check("after programs over an erased and a programmed page")

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = Open(path, Options{}); err != nil {
		t.Fatal(err)
	}
	check("after Close and reopen")
}

// TestReadOfCutFileFails: a file shortened behind an open device leaves
// part of the mapping with no file under it. Reading a page there must
// return an error naming the page, not kill the process, and so must a
// program whose read-back lands there; the device still closes cleanly.
func TestReadOfCutFileFails(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	last := flash.PPN(p.NumPages() - 1)
	data, spare := pageImage(p, 7)
	if err := d.Program(last, data, spare); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(d.Path(), d.pagesOff); err != nil {
		t.Fatal(err)
	}
	err := d.Read(last, make([]byte, p.DataSize), make([]byte, p.SpareSize))
	if !errors.Is(err, ErrUnreadable) {
		t.Fatalf("read of a cut page: err = %v, want ErrUnreadable", err)
	}
	if err := d.ProgramSpare(last, erased(p.SpareSize)); !errors.Is(err, ErrUnreadable) {
		t.Fatalf("spare program of a cut page: err = %v, want ErrUnreadable", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadsBesideMutations runs readers of blocks 0 to 3 while another
// goroutine programs and erases blocks 4 to 7 (under -race in CI): reads
// share the lock and the mapping, and every mutation takes both
// exclusively.
func TestReadsBesideMutations(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	const readBlocks = 4
	stable := readBlocks * p.PagesPerBlock
	for ppn := 0; ppn < stable; ppn++ {
		data, spare := pageImage(p, byte(ppn))
		if err := d.Program(flash.PPN(ppn), data, spare); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 20
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for r := 0; r < rounds; r++ {
			for blk := readBlocks; blk < p.NumBlocks; blk++ {
				first := blk * p.PagesPerBlock
				for i := 0; i < p.PagesPerBlock; i++ {
					data, spare := pageImage(p, byte(r+i))
					if err := d.Program(flash.PPN(first+i), data, spare); err != nil {
						t.Error(err)
						return
					}
				}
				if err := d.Erase(blk); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gotD, gotS := make([]byte, p.DataSize), make([]byte, p.SpareSize)
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				ppn := (n*7 + w) % stable
				if err := d.Read(flash.PPN(ppn), gotD, gotS); err != nil {
					t.Error(err)
					return
				}
				data, spare := pageImage(p, byte(ppn))
				if !bytes.Equal(gotD, data) || !bytes.Equal(gotS, spare) {
					t.Errorf("ppn %d changed under a mutation of another block", ppn)
					return
				}
			}
		}()
	}
	wg.Wait()
}
