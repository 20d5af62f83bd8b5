package ftl

import (
	"bytes"
	"math/rand"
	"testing"
)

// crc8Bitwise is the bit-serial CRC-8 (polynomial 0x07) HeaderChecksum
// used before it became table-driven: the reference the table must match.
func crc8Bitwise(crc byte, p []byte) byte {
	for _, b := range p {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func headerChecksumRef(spare []byte) byte {
	c := crc8Bitwise(0, spare[:sparePosObsolete])
	return crc8Bitwise(c, spare[sparePosObsolete+1:HeaderSpareBytes])
}

func TestHeaderChecksumMatchesBitwise(t *testing.T) {
	spare := make([]byte, 64)
	check := func() {
		t.Helper()
		if got, want := HeaderChecksum(spare), headerChecksumRef(spare); got != want {
			t.Fatalf("HeaderChecksum(%x) = %#02x, bitwise reference %#02x", spare[:HeaderSpareBytes], got, want)
		}
	}
	check() // all zero
	for i := range spare {
		spare[i] = 0xFF
	}
	check() // erased
	// Every value of every header byte.
	for pos := 0; pos < HeaderSpareBytes; pos++ {
		for v := 0; v < 256; v++ {
			spare[pos] = byte(v)
			check()
		}
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		rng.Read(spare)
		check()
	}
	// The obsolete flag stays outside the checksum.
	before := HeaderChecksum(spare)
	spare[sparePosObsolete] ^= 0xFF
	if HeaderChecksum(spare) != before {
		t.Error("the obsolete flag changed the header checksum")
	}
}

// lcg fills b from a 64-bit LCG (Knuth's MMIX constants), one high byte
// per step; the golden seal's page generator (the ecc package's tests use
// the same one).
func lcg(seed uint64, b []byte) {
	x := seed
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
}

// TestGoldenSeal pins header checksums and one whole sealed spare printed
// by commit f6ec7a7 (bit-serial CRC, byte-wise ECC): pages that commit
// programmed still verify.
func TestGoldenSeal(t *testing.T) {
	spare := make([]byte, 64)
	for _, g := range []struct {
		h      Header
		byte22 byte // the reserved byte; old images hold 0x4F there
		sum    byte
	}{
		{Header{Type: TypeBase}, 0xFF, 0x61},
		{Header{Type: TypeDiff, PID: NoPID, TS: 1, Seq: 1}, 0xFF, 0xa4},
		{Header{Type: 0xC0, PID: 7, TS: 1 << 40, Seq: 1 << 33}, 0xFF, 0x0b},
		{Header{Type: TypeBase, PID: 123456, TS: 987654321, Seq: 5}, 0x4F, 0x46},
	} {
		EncodeHeaderInto(g.h, spare)
		spare[22] = g.byte22
		if got := HeaderChecksum(spare); got != g.sum {
			t.Errorf("HeaderChecksum(%+v) = %#02x, the parent commit wrote %#02x", g.h, got, g.sum)
		}
	}

	page := make([]byte, 2048)
	lcg(99, page)
	h := Header{Type: TypeBase, PID: 0x01020304, TS: 0x1122334455667788, Seq: 42}
	EncodeHeaderInto(h, spare)
	spare[22] = 0x4F
	SealSpare(page, spare)
	want := []byte{0xb0, 0xff, 0x04, 0x03, 0x02, 0x01, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
		0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4f,
		0x3c, 0x0c, 0x3f, 0x99, 0x95, 0x57, 0xc3, 0xc3, 0xcf, 0xa5, 0x99, 0x57,
		0xf3, 0x0c, 0x0f, 0x30, 0x33, 0x0f, 0x66, 0x5a, 0x6b, 0x0f, 0x0f, 0xf3,
		0x0f}
	want = append(want, bytes.Repeat([]byte{0xFF}, len(spare)-len(want))...)
	if !bytes.Equal(spare, want) {
		t.Errorf("sealed spare\n got %x\nwant %x (parent commit)", spare, want)
	}
	if !VerifyHeaderChecksum(want, len(page)) {
		t.Error("the parent commit's sealed spare fails VerifyHeaderChecksum")
	}
	if got := DecodeHeader(want); got != h {
		t.Errorf("DecodeHeader of a spare holding 0x4F at the reserved byte = %+v, want %+v", got, h)
	}
}

func BenchmarkHeaderChecksum(b *testing.B) {
	spare := make([]byte, 64)
	EncodeHeaderInto(benchHeader, spare)
	for b.Loop() {
		benchSink = HeaderChecksum(spare)
	}
}

func BenchmarkHeaderChecksumBitwise(b *testing.B) {
	spare := make([]byte, 64)
	EncodeHeaderInto(benchHeader, spare)
	for b.Loop() {
		benchSink = headerChecksumRef(spare)
	}
}
