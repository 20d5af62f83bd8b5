package filedev

import (
	"bytes"
	"math/rand"
	"testing"

	"pdl/internal/flash"
)

// The byte loops the word kernels replaced: the reference they must match.

func refComplementInto(dst, src []byte) {
	for i := range dst {
		dst[i] = ^src[i]
	}
}

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

// TestKernelsMatchByteLoops checks complementInto, checkProgrammable and
// programInto against the byte loops on random stored-domain images, at every
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
			logical, refLogical := randBytes(n), make([]byte, n)
			complementInto(logical, stored)
			refComplementInto(refLogical, stored)
			if !bytes.Equal(logical, refLogical) {
				t.Fatalf("len %d trial %d: complementInto differs from the byte loop", n, trial)
			}
		}
	}
}
