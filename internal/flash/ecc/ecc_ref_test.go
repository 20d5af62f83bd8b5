package ecc

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
)

// computeRef is the byte-at-a-time Compute this package shipped before
// the word-parallel kernel, kept as the reference the kernel must match
// bit for bit: stores sealed by it must verify under sectorCode.
func computeRef(data []byte) [CodeSize]byte {
	parity := func(b byte) byte { return byte(bits.OnesCount8(b) & 1) }
	var code [CodeSize]byte
	var colAcc byte // XOR of all bytes: basis for column parity
	var oddAcc byte // bit k = parity of the odd half of line pair k
	var all byte    // parity of the whole sector
	for i, b := range data {
		colAcc ^= b
		p := parity(b)
		all ^= p
		oddAcc ^= byte(i) & -p
	}
	var line uint16
	for k := 0; k < 8; k++ {
		odd := (oddAcc >> k) & 1
		line |= uint16(all^odd) << (2 * k)
		line |= uint16(odd) << (2*k + 1)
	}
	code[0] = byte(line)
	code[1] = byte(line >> 8)
	masks := [6]byte{0b01010101, 0b10101010, 0b00110011, 0b11001100, 0b00001111, 0b11110000}
	for k, m := range masks {
		code[2] |= parity(colAcc&m) << (k + 2)
	}
	code[2] |= 0x03
	return code
}

func checkAgainstRef(t *testing.T, what string, sec []byte) {
	t.Helper()
	got, err := Compute(sec)
	if err != nil {
		t.Fatal(err)
	}
	if want := computeRef(sec); got != want {
		t.Fatalf("%s: Compute = %x, reference = %x", what, got, want)
	}
}

func TestComputeMatchesReference(t *testing.T) {
	sec := make([]byte, SectorSize)
	checkAgainstRef(t, "all 0x00", sec)
	checkAgainstRef(t, "all 0xFF", bytes.Repeat([]byte{0xFF}, SectorSize))
	for bit := 0; bit < SectorSize*8; bit++ {
		sec[bit/8] = 1 << (bit % 8)
		checkAgainstRef(t, "one-hot", sec)
		sec[bit/8] = 0
	}
	// Random sectors, each followed by a walk of single-bit flips from it,
	// so neighbouring inputs differ in exactly one parity pattern.
	rng := rand.New(rand.NewSource(20260928))
	for i := 0; i < 10000; i++ {
		rng.Read(sec)
		checkAgainstRef(t, "random", sec)
		for j := 0; j < 9; j++ {
			bit := rng.Intn(SectorSize * 8)
			sec[bit/8] ^= 1 << (bit % 8)
			checkAgainstRef(t, "flipped", sec)
		}
	}
}

func FuzzComputeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, SectorSize))
	f.Add(randomSector(11))
	f.Fuzz(func(t *testing.T, data []byte) {
		sec := make([]byte, SectorSize)
		copy(sec, data)
		checkAgainstRef(t, "fuzzed", sec)
	})
}

// lcg fills b from a 64-bit LCG (Knuth's MMIX constants), one high byte
// per step: the golden vectors' input generator, spelled out here so it
// can never drift with a library.
func lcg(seed uint64, b []byte) {
	x := seed
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
}

// TestGoldenCodes pins codes printed by the byte-wise implementation at
// commit f6ec7a7 (the parent of the word-parallel kernel): a store sealed
// by that commit verifies clean under this one.
func TestGoldenCodes(t *testing.T) {
	fill := func(f func(sec []byte)) []byte {
		sec := make([]byte, SectorSize)
		f(sec)
		return sec
	}
	oneHot := func(bit int) []byte {
		return fill(func(sec []byte) { sec[bit/8] = 1 << (bit % 8) })
	}
	random := func(seed uint64) []byte {
		return fill(func(sec []byte) { lcg(seed, sec) })
	}
	for _, g := range []struct {
		name string
		sec  []byte
		code [CodeSize]byte
	}{
		{"zero", fill(func([]byte) {}), [3]byte{0x00, 0x00, 0x03}},
		{"ones", bytes.Repeat([]byte{0xFF}, SectorSize), [3]byte{0x00, 0x00, 0x03}},
		{"squares", fill(func(sec []byte) {
			for i := range sec {
				sec[i] = byte(i * i / 3)
			}
		}), [3]byte{0xff, 0x03, 0x03}},
		{"onehot0", oneHot(0), [3]byte{0x55, 0x55, 0x57}},
		{"onehot1", oneHot(1), [3]byte{0x55, 0x55, 0x5b}},
		{"onehot7", oneHot(7), [3]byte{0x55, 0x55, 0xab}},
		{"onehot8", oneHot(8), [3]byte{0x56, 0x55, 0x57}},
		{"onehot63", oneHot(63), [3]byte{0x6a, 0x55, 0xab}},
		{"onehot64", oneHot(64), [3]byte{0x95, 0x55, 0x57}},
		{"onehot777", oneHot(777), [3]byte{0x56, 0x69, 0x5b}},
		{"onehot1024", oneHot(1024), [3]byte{0x55, 0x95, 0x57}},
		{"onehot2047", oneHot(2047), [3]byte{0xaa, 0xaa, 0xab}},
		{"lcg1", random(1), [3]byte{0x99, 0xa5, 0x6b}},
		{"lcg2", random(2), [3]byte{0xa6, 0x95, 0xab}},
		{"lcg3", random(3), [3]byte{0xa6, 0xa9, 0x6b}},
		{"lcg4", random(4), [3]byte{0xc0, 0x33, 0xcf}},
		{"lcg5", random(5), [3]byte{0xcc, 0xc0, 0xf3}},
		{"lcg6", random(6), [3]byte{0x00, 0x00, 0xff}},
		{"lcg7", random(7), [3]byte{0xa9, 0xa5, 0x6b}},
		{"lcg8", random(8), [3]byte{0x03, 0xcf, 0x03}},
	} {
		if got, err := Compute(g.sec); err != nil || got != g.code {
			t.Errorf("%s: Compute = %x, %v; the parent commit wrote %x", g.name, got, err, g.code)
		}
	}

	page := make([]byte, 2048)
	lcg(99, page)
	want := []byte{0x3c, 0x0c, 0x3f, 0x99, 0x95, 0x57, 0xc3, 0xc3, 0xcf, 0xa5, 0x99, 0x57,
		0xf3, 0x0c, 0x0f, 0x30, 0x33, 0x0f, 0x66, 0x5a, 0x6b, 0x0f, 0x0f, 0xf3}
	got, err := ComputePage(page)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("ComputePage = %x, %v; the parent commit wrote %x", got, err, want)
	}
	if n, bad, err := CorrectPageSectors(page, want); n != 0 || bad != nil || err != nil {
		t.Errorf("page sealed by the parent commit: corrected %d, bad %v, err %v", n, bad, err)
	}
}

// TestPageVerifyAllocatesNothing pins the clean fast path of the two calls
// every seal and every verified read make.
func TestPageVerifyAllocatesNothing(t *testing.T) {
	page := make([]byte, 2048)
	lcg(5, page)
	codes := make([]byte, len(page)/SectorSize*CodeSize)
	if n := testing.AllocsPerRun(100, func() {
		if err := ComputePageInto(page, codes); err != nil {
			t.Fatal(err)
		}
		if _, bad, err := CorrectPageSectors(page, codes); bad != nil || err != nil {
			t.Fatal(bad, err)
		}
	}); n != 0 {
		t.Errorf("seal + verify of a clean page allocates %v times, want 0", n)
	}
}

var sinkCode [CodeSize]byte

func BenchmarkCompute(b *testing.B) {
	sec := randomSector(1)
	b.SetBytes(SectorSize)
	for b.Loop() {
		sinkCode, _ = Compute(sec)
	}
}

func BenchmarkComputeRef(b *testing.B) {
	sec := randomSector(1)
	b.SetBytes(SectorSize)
	for b.Loop() {
		sinkCode = computeRef(sec)
	}
}

func BenchmarkComputePage(b *testing.B) {
	page := make([]byte, 2048)
	lcg(1, page)
	codes := make([]byte, len(page)/SectorSize*CodeSize)
	b.SetBytes(int64(len(page)))
	for b.Loop() {
		_ = ComputePageInto(page, codes)
	}
}

func BenchmarkCorrectPageSectors(b *testing.B) {
	page := make([]byte, 2048)
	lcg(1, page)
	codes, _ := ComputePage(page)
	b.SetBytes(int64(len(page)))
	for b.Loop() {
		_, _, _ = CorrectPageSectors(page, codes)
	}
}
