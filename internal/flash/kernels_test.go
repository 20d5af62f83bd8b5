package flash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The byte loops the word kernels replaced: the reference they must match.

func refCheckProgrammable(cur, want []byte) error {
	for i := range want {
		if want[i]&^cur[i] != 0 {
			return ErrProgramConflict
		}
	}
	return nil
}

func refAndInto(dst, src []byte) {
	for i := range src {
		dst[i] &= src[i]
	}
}

// kernelLengths are the lengths the kernels see: every length up to three
// words (ProgramPartial chunks, torn halves of odd sizes), a 64-byte spare
// and its torn half, and a 2 KB page and its torn half.
func kernelLengths() []int {
	ns := []int{32, 64, 1024, 2048}
	for n := 0; n <= 24; n++ {
		ns = append(ns, n)
	}
	return ns
}

// TestKernelsMatchByteLoops checks checkProgrammable and andInto against the
// byte loops on random images, on slices that start off a word boundary as a
// ProgramPartial chunk does: a legal program, a random one, and one whose only
// conflict is a bit of the last byte, which for most lengths is in the tail.
func TestKernelsMatchByteLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for _, n := range kernelLengths() {
		for trial := 0; trial < 50; trial++ {
			off := rng.Intn(8)
			cur := randBytes(off + n)[off:]
			bit := byte(1) << (trial % 8)
			if n > 0 {
				cur[n-1] &^= bit // a programmed cell in the last byte
			}
			legal := randBytes(n)
			for i := range legal {
				legal[i] &= cur[i] // clears bits only: never a conflict
			}
			wants := [][]byte{legal, randBytes(n)}
			if n > 0 {
				conflict := bytes.Clone(legal)
				conflict[n-1] |= bit
				wants = append(wants, conflict)
			}
			for k, want := range wants {
				got, ref := checkProgrammable(cur, want), refCheckProgrammable(cur, want)
				if got != ref {
					t.Fatalf("len %d trial %d want %d: checkProgrammable = %v, byte loop %v", n, trial, k, got, ref)
				}
				if k == 0 && got != nil {
					t.Fatalf("len %d trial %d: a program that clears bits only conflicts", n, trial)
				}
				if k == 2 && got == nil {
					t.Fatalf("len %d trial %d: the conflict in the last byte was not seen", n, trial)
				}
				dst, refDst := bytes.Clone(cur), bytes.Clone(cur)
				andInto(dst, want)
				refAndInto(refDst, want)
				if !bytes.Equal(dst, refDst) {
					t.Fatalf("len %d trial %d want %d: andInto differs from the byte loop", n, trial, k)
				}
			}
		}
	}
}

// TestFreshProgramMatchesAndMerge: a full program into a page no program has
// touched since its erase is a copy, and must store what the checked
// AND-merge stores. Each image goes to a fresh page and to a reference page
// touched first by a zero-length ProgramPartial, which changes no bit but
// sends the program down the merge path: with a spare, with a nil spare
// (which leaves the spare erased), and through ProgramBatch.
func TestFreshProgramMatchesAndMerge(t *testing.T) {
	p := testParams()
	c := NewChip(p)
	rng := rand.New(rand.NewSource(2))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	next := PPN(0)
	pair := func() (fresh, merged PPN) {
		fresh, merged, next = next, next+1, next+2
		if err := c.ProgramPartial(merged, 0, nil); err != nil {
			t.Fatal(err)
		}
		if c.pages[fresh].touched || !c.pages[merged].touched {
			t.Fatalf("pages %d and %d: want the first untouched and the second touched", fresh, merged)
		}
		return fresh, merged
	}
	same := func(name string, fresh, merged PPN, data, spare []byte) {
		t.Helper()
		if spare == nil {
			spare = newErased(p.SpareSize)
		}
		for _, ppn := range []PPN{fresh, merged} {
			gotD, gotS := make([]byte, p.DataSize), make([]byte, p.SpareSize)
			if err := c.Read(ppn, gotD, gotS); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotD, data) || !bytes.Equal(gotS, spare) {
				t.Fatalf("%s: page %d does not hold the programmed image", name, ppn)
			}
		}
	}

	for _, withSpare := range []bool{true, false} {
		fresh, merged := pair()
		data, spare := randBytes(p.DataSize), randBytes(p.SpareSize)
		if !withSpare {
			spare = nil
		}
		for _, ppn := range []PPN{fresh, merged} {
			if err := c.Program(ppn, data, spare); err != nil {
				t.Fatal(err)
			}
		}
		same(fmt.Sprintf("Program, spare %v", withSpare), fresh, merged, data, spare)
	}

	var freshBatch, mergedBatch []PageProgram
	for i := 0; i < 3; i++ {
		fresh, merged := pair()
		pp := PageProgram{Data: randBytes(p.DataSize)}
		if i != 1 {
			pp.Spare = randBytes(p.SpareSize)
		}
		pp.PPN = fresh
		freshBatch = append(freshBatch, pp)
		pp.PPN = merged
		mergedBatch = append(mergedBatch, pp)
	}
	for _, batch := range [][]PageProgram{freshBatch, mergedBatch} {
		if err := c.ProgramBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i, pp := range freshBatch {
		same(fmt.Sprintf("ProgramBatch element %d", i), pp.PPN, mergedBatch[i].PPN, pp.Data, pp.Spare)
	}
}

// TestFreshProgramAfterTouchConflicts: a torn program, a partial program of
// the data area and a spare program, whole or torn, each leave the page
// touched, so a full program that would raise one of their 0 bits is refused.
func TestFreshProgramAfterTouchConflicts(t *testing.T) {
	p := testParams()
	zeros, zeroSpare := make([]byte, p.DataSize), make([]byte, p.SpareSize)
	for _, tc := range []struct {
		name  string
		torn  bool
		touch func(c *Chip, ppn PPN) error
	}{
		{"torn program", true, func(c *Chip, ppn PPN) error { return c.Program(ppn, zeros, zeroSpare) }},
		{"partial program", false, func(c *Chip, ppn PPN) error { return c.ProgramPartial(ppn, 8, zeros[:8]) }},
		{"torn partial program", true, func(c *Chip, ppn PPN) error { return c.ProgramPartial(ppn, 8, zeros[:8]) }},
		{"spare program", false, func(c *Chip, ppn PPN) error { return c.ProgramSpare(ppn, zeroSpare) }},
		{"torn spare program", true, func(c *Chip, ppn PPN) error { return c.ProgramSpare(ppn, zeroSpare) }},
	} {
		c := NewChip(p)
		const ppn = 3
		want := error(nil)
		if tc.torn {
			c.SchedulePowerFailure(1)
			want = ErrPowerLoss
		}
		if err := tc.touch(c, ppn); !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, want)
		}
		if err := c.Program(ppn, newErased(p.DataSize), newErased(p.SpareSize)); !errors.Is(err, ErrProgramConflict) {
			t.Errorf("%s: a program raising its 0 bits: err = %v, want ErrProgramConflict", tc.name, err)
		}
	}
}

// TestFreshProgramAfterErase: an erase makes a programmed page untouched
// again, and the next program of it is the copy.
func TestFreshProgramAfterErase(t *testing.T) {
	p := testParams()
	c := NewChip(p)
	ppn := c.PPNOf(1, 2)
	if err := c.Program(ppn, make([]byte, p.DataSize), make([]byte, p.SpareSize)); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramSpare(c.PPNOf(1, 3), make([]byte, p.SpareSize)); err != nil {
		t.Fatal(err)
	}
	if err := c.Erase(1); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < p.PagesPerBlock; pg++ {
		if c.pages[c.PPNOf(1, pg)].touched {
			t.Fatalf("page %d of an erased block is still touched", pg)
		}
	}
	data, spare := filled(p.DataSize, 0xA5), filled(p.SpareSize, 0x5A)
	if err := c.Program(ppn, data, spare); err != nil {
		t.Fatal(err)
	}
	gotD, gotS := make([]byte, p.DataSize), make([]byte, p.SpareSize)
	if err := c.Read(ppn, gotD, gotS); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotD, data) || !bytes.Equal(gotS, spare) || !c.pages[ppn].touched {
		t.Fatal("the program after an erase does not read back, or left the page untouched")
	}
}
