package filedev

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"pdl/internal/flash"
)

// The byte loops the word kernels replaced: the reference they must match.

func refCheckProgrammable(stored, want []byte) error {
	for i := range want {
		if want[i]&stored[i] != 0 {
			return flash.ErrProgramConflict
		}
	}
	return nil
}

func refProgramInto(stored, want []byte) {
	for i := range want {
		stored[i] |= ^want[i]
	}
}

// TestKernelsMatchByteLoops checks checkProgrammable and programInto against the byte loops on random stored-domain images, at every
// length up to three words (ProgramPartial chunks, torn halves), a 64-byte
// spare, a 2 KB page and their torn halves, on slices that start off a word
// boundary: a legal program, a random one, and one whose only conflict is a
// bit of the last byte, which for most lengths is in the tail.
func TestKernelsMatchByteLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	lengths := []int{32, 64, 1024, 2048}
	for n := 0; n <= 24; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for trial := 0; trial < 50; trial++ {
			off := rng.Intn(8)
			stored := randBytes(off + n)[off:]
			bit := byte(1) << (trial % 8)
			if n > 0 {
				stored[n-1] |= bit // a programmed cell in the last byte
			}
			legal := randBytes(n)
			for i := range legal {
				legal[i] &^= stored[i] // a 1 only over an erased cell: never a conflict
			}
			wants := [][]byte{legal, randBytes(n)}
			if n > 0 {
				conflict := bytes.Clone(legal)
				conflict[n-1] |= bit
				wants = append(wants, conflict)
			}
			for k, want := range wants {
				got, ref := checkProgrammable(stored, want), refCheckProgrammable(stored, want)
				if got != ref {
					t.Fatalf("len %d trial %d want %d: checkProgrammable = %v, byte loop %v", n, trial, k, got, ref)
				}
				if k == 0 && got != nil {
					t.Fatalf("len %d trial %d: a program over erased cells only conflicts", n, trial)
				}
				if k == 2 && got == nil {
					t.Fatalf("len %d trial %d: the conflict in the last byte was not seen", n, trial)
				}
				dst, refDst := bytes.Clone(stored), bytes.Clone(stored)
				programInto(dst, want)
				refProgramInto(refDst, want)
				if !bytes.Equal(dst, refDst) {
					t.Fatalf("len %d trial %d want %d: programInto differs from the byte loop", n, trial, k)
				}
			}
		}
	}
}

// storedRecord returns ppn's page record as the file holds it.
func storedRecord(t *testing.T, d *Device, ppn flash.PPN) []byte {
	t.Helper()
	rec := make([]byte, d.recordSize)
	if _, err := d.f.ReadAt(rec, d.recordOff(ppn)); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestFreshProgramMatchesAndMerge: a full program into a page erased in this
// session writes the complement of its image with no read-back, and must
// leave in the file the record the read-back, check and OR-merge leave. Each
// image goes to a fresh page and to a reference page a zero-length
// ProgramPartial has taken off the erased set without changing a bit: with a
// spare, with a nil spare (which leaves the spare erased), and through
// ProgramBatch, whose failed validation takes no page off the set.
func TestFreshProgramMatchesAndMerge(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	rng := rand.New(rand.NewSource(2))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	next := flash.PPN(0)
	pair := func() (fresh, merged flash.PPN) {
		fresh, merged, next = next, next+1, next+2
		if err := d.ProgramPartial(merged, 0, nil); err != nil {
			t.Fatal(err)
		}
		if !d.erased.has(fresh) || d.erased.has(merged) {
			t.Fatalf("pages %d and %d: want the first known erased and the second not", fresh, merged)
		}
		return fresh, merged
	}
	same := func(name string, fresh, merged flash.PPN, data, spare []byte) {
		t.Helper()
		if spare == nil {
			spare = erased(p.SpareSize)
		}
		rec := storedRecord(t, d, fresh)
		if !bytes.Equal(rec, storedRecord(t, d, merged)) {
			t.Fatalf("%s: the fresh page's record differs from the merged page's", name)
		}
		gotD, gotS := make([]byte, p.DataSize), make([]byte, p.SpareSize)
		if err := d.Read(fresh, gotD, gotS); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotD, data) || !bytes.Equal(gotS, spare) || d.erased.has(fresh) {
			t.Fatalf("%s: page %d does not read back, or is still known erased", name, fresh)
		}
	}

	for _, withSpare := range []bool{true, false} {
		fresh, merged := pair()
		data, spare := randBytes(p.DataSize), randBytes(p.SpareSize)
		if !withSpare {
			spare = nil
		}
		for _, ppn := range []flash.PPN{fresh, merged} {
			if err := d.Program(ppn, data, spare); err != nil {
				t.Fatal(err)
			}
		}
		same(fmt.Sprintf("Program, spare %v", withSpare), fresh, merged, data, spare)
	}

	var freshBatch, mergedBatch []flash.PageProgram
	for i := 0; i < 3; i++ {
		fresh, merged := pair()
		pp := flash.PageProgram{Data: randBytes(p.DataSize)}
		if i != 1 {
			pp.Spare = randBytes(p.SpareSize)
		}
		pp.PPN = fresh
		freshBatch = append(freshBatch, pp)
		pp.PPN = merged
		mergedBatch = append(mergedBatch, pp)
	}
	bad := append(freshBatch[:2:2], flash.PageProgram{PPN: next, Data: make([]byte, 1)})
	if err := d.ProgramBatch(bad); !errors.Is(err, flash.ErrBufSize) {
		t.Fatalf("a batch with a short buffer: err = %v, want ErrBufSize", err)
	}
	for _, pp := range freshBatch {
		if !d.erased.has(pp.PPN) || !bytes.Equal(storedRecord(t, d, pp.PPN), make([]byte, d.recordSize)) {
			t.Fatalf("a batch that failed validation changed page %d", pp.PPN)
		}
	}
	for _, batch := range [][]flash.PageProgram{freshBatch, mergedBatch} {
		if err := d.ProgramBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i, pp := range freshBatch {
		same(fmt.Sprintf("ProgramBatch element %d", i), pp.PPN, mergedBatch[i].PPN, pp.Data, pp.Spare)
	}
}

// TestFreshProgramAfterTouchConflicts: a partial program of the data area and
// a spare program each take the page off the erased set, so a full program
// that would raise one of their 0 bits is refused.
func TestFreshProgramAfterTouchConflicts(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	zeros := make([]byte, p.DataSize)
	if err := d.ProgramPartial(3, 8, zeros[:8]); err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramSpare(4, make([]byte, p.SpareSize)); err != nil {
		t.Fatal(err)
	}
	for _, ppn := range []flash.PPN{3, 4} {
		if err := d.Program(ppn, erased(p.DataSize), erased(p.SpareSize)); !errors.Is(err, flash.ErrProgramConflict) {
			t.Errorf("page %d: a program raising its 0 bits: err = %v, want ErrProgramConflict", ppn, err)
		}
	}
}

// TestFreshProgramAfterErase: an erase puts its block's pages back on the
// erased set, and the next program of one writes it without a read-back.
func TestFreshProgramAfterErase(t *testing.T) {
	d := openNew(t, Options{})
	p := d.Params()
	ppn := flash.PPN(p.PagesPerBlock + 2)
	if err := d.Program(ppn, make([]byte, p.DataSize), make([]byte, p.SpareSize)); err != nil {
		t.Fatal(err)
	}
	if err := d.Erase(1); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < p.PagesPerBlock; pg++ {
		if !d.erased.has(flash.PPN(p.PagesPerBlock + pg)) {
			t.Fatalf("page %d of an erased block is not known erased", pg)
		}
	}
	data, spare := bytes.Repeat([]byte{0xA5}, p.DataSize), bytes.Repeat([]byte{0x5A}, p.SpareSize)
	if err := d.Program(ppn, data, spare); err != nil {
		t.Fatal(err)
	}
	gotD, gotS := make([]byte, p.DataSize), make([]byte, p.SpareSize)
	if err := d.Read(ppn, gotD, gotS); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotD, data) || !bytes.Equal(gotS, spare) {
		t.Fatal("the program after an erase does not read back")
	}
}

// TestFreshProgramAfterReopen: a file reopened without Reset knows no page
// erased, so a page programmed before the reopen still refuses a program
// that raises its bits, and a page never programmed gets, by the read-back
// path, the record a fresh program writes. Reset knows every page erased.
func TestFreshProgramAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flash.img")
	p := testParams()
	d, err := Open(path, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	data, spare := bytes.Repeat([]byte{0x3C}, p.DataSize), bytes.Repeat([]byte{0xC3}, p.SpareSize)
	if err := d.Program(0, data, spare); err != nil {
		t.Fatal(err)
	}
	want := storedRecord(t, d, 0)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	for ppn := 0; ppn < p.NumPages(); ppn++ {
		if d.erased.has(flash.PPN(ppn)) {
			t.Fatalf("page %d known erased after a reopen", ppn)
		}
	}
	if err := d.Program(0, erased(p.DataSize), erased(p.SpareSize)); !errors.Is(err, flash.ErrProgramConflict) {
		t.Fatalf("a program raising the bits of a page written before the reopen: err = %v, want ErrProgramConflict", err)
	}
	if err := d.Program(5, data, spare); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storedRecord(t, d, 5), want) {
		t.Fatal("the read-back program after a reopen stores another record than the fresh one")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = Open(path, Options{Params: p, Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	for ppn := 0; ppn < p.NumPages(); ppn++ {
		if !d.erased.has(flash.PPN(ppn)) {
			t.Fatalf("page %d not known erased after a Reset", ppn)
		}
	}
}
