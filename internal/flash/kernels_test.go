package flash

import (
	"bytes"
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

// TestEraseNowCopiesTheErasedImage: an erase returns every data and spare
// byte of a programmed block to 0xFF, whichever of the two areas is larger.
func TestEraseNowCopiesTheErasedImage(t *testing.T) {
	for _, p := range []Params{
		{NumBlocks: 2, PagesPerBlock: 4, DataSize: 512, SpareSize: 16, ReadMicros: 1, WriteMicros: 1, EraseMicros: 1},
		{NumBlocks: 2, PagesPerBlock: 4, DataSize: 24, SpareSize: 40, ReadMicros: 1, WriteMicros: 1, EraseMicros: 1},
	} {
		c := NewChip(p)
		for pg := 0; pg < p.PagesPerBlock; pg++ {
			if err := c.Program(PPN(pg), make([]byte, p.DataSize), make([]byte, p.SpareSize)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Erase(0); err != nil {
			t.Fatal(err)
		}
		data, spare := make([]byte, p.DataSize), make([]byte, p.SpareSize)
		for pg := 0; pg < p.PagesPerBlock; pg++ {
			if err := c.Read(PPN(pg), data, spare); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, newErased(p.DataSize)) || !bytes.Equal(spare, newErased(p.SpareSize)) {
				t.Fatalf("%+v: page %d not erased", p, pg)
			}
		}
	}
}
