// Package ecc implements the single-error-correcting, double-error-
// detecting (SEC-DED) Hamming code used by NAND flash drivers to protect
// page data, in the 3-bytes-per-256-byte-sector layout popularized by
// SmartMedia and used in the spare areas of the chips the paper models
// (section 2: the spare area stores "auxiliary information such as ...
// error correction check (ECC)").
//
// The code computes, for each 256-byte sector, 22 parity bits: 16 line
// parity bits (8 even/odd pairs over the byte index) and 6 column parity
// bits (3 even/odd pairs over the bit index), packed into 3 bytes. A
// single-bit error yields a syndrome that directly addresses the flipped
// bit; a failed address-pair consistency check signals an uncorrectable
// multi-bit error.
package ecc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// SectorSize is the data unit covered by one ECC triple.
const SectorSize = 256

// CodeSize is the ECC bytes per sector.
const CodeSize = 3

// Errors reported by Correct.
var (
	// ErrUncorrectable reports a multi-bit error.
	ErrUncorrectable = errors.New("ecc: uncorrectable error (two or more bits)")
	// ErrSectorSize reports a data slice that is not one sector.
	ErrSectorSize = errors.New("ecc: data must be exactly one 256-byte sector")
	// ErrCodeSize reports an ECC slice that is not 3 bytes.
	ErrCodeSize = errors.New("ecc: code must be exactly 3 bytes")
)

// lineTab[a] spreads the eight bits of a to the even bit positions of a
// 16-bit word (bit k of a lands on bit 2k), the interleave of the line
// parity pairs. colTab[b] is code[2] for a sector whose bytes XOR to b:
// the six column parities in bits 2..7 over the two always-set low bits.
var (
	lineTab [256]uint16
	colTab  [256]byte
)

func init() {
	// Column parity pairs over the bit index: CP0 covers even bits, CP1
	// odd bits, CP2 bits with bit1=0, CP3 bit1=1, CP4 bit2=0, CP5 bit2=1.
	masks := [6]uint8{0b01010101, 0b10101010, 0b00110011, 0b11001100, 0b00001111, 0b11110000}
	for i := range lineTab {
		for k := 0; k < 8; k++ {
			lineTab[i] |= uint16(i>>k&1) << (2 * k)
		}
		colTab[i] = 0x03 // unused low bits kept erased-compatible
		for k, m := range masks {
			colTab[i] |= byte(bits.OnesCount8(uint8(i)&m)&1) << (k + 2)
		}
	}
}

// Compute returns the 3-byte ECC of one 256-byte sector.
//
// Layout (matching the classic SmartMedia convention):
//
//	code[0] = line parity LP0..LP7   (address bits 0..3 of the byte index)
//	code[1] = line parity LP8..LP15  (address bits 4..7 of the byte index)
//	code[2] = column parity CP0..CP5 in bits 2..7, bits 0..1 set to 1
func Compute(data []byte) ([CodeSize]byte, error) {
	if len(data) != SectorSize {
		return [CodeSize]byte{}, fmt.Errorf("%w: got %d bytes", ErrSectorSize, len(data))
	}
	c := sectorCode((*[SectorSize]byte)(data))
	return [CodeSize]byte{byte(c), byte(c >> 8), byte(c >> 16)}, nil
}

// Lanes of a little-endian 64-bit word whose byte index within the word
// has bit 0, 1, 2 set.
const (
	lane0 = 0xFF00FF00FF00FF00
	lane1 = 0xFFFF0000FFFF0000
	lane2 = 0xFFFFFFFF00000000
)

// sectorCode computes the code of one sector, packed code[0] | code[1]<<8
// | code[2]<<16. It sits on every verified page read and every seal, so
// it works a 64-bit word at a time.
//
// Line parity bit LP(2k+1) is the parity of the bytes whose index has bit
// k set, and parity distributes over XOR, so whole words are XORed into
// accumulators and one popcount per accumulator at the end replaces a
// parity lookup per byte. Byte i is lane i%8 of word i/8: address bits
// 3..7 select words (b0..b4 collect the words whose index has that bit
// set) and address bits 0..2 select lanes of fold, the XOR of all 32
// words. The even half of every pair is the sector parity XOR the odd
// half. The column parities come from the XOR of all bytes, which is
// fold's eight lanes XORed together.
func sectorCode(sec *[SectorSize]byte) uint32 {
	var b0, b1, b2 uint64
	var g [4]uint64 // XOR of each run of eight words: index bits 3 and 4
	for k := range g {
		s := sec[64*k : 64*k+64]
		x0, x1 := binary.LittleEndian.Uint64(s[0:]), binary.LittleEndian.Uint64(s[8:])
		x2, x3 := binary.LittleEndian.Uint64(s[16:]), binary.LittleEndian.Uint64(s[24:])
		x4, x5 := binary.LittleEndian.Uint64(s[32:]), binary.LittleEndian.Uint64(s[40:])
		x6, x7 := binary.LittleEndian.Uint64(s[48:]), binary.LittleEndian.Uint64(s[56:])
		t23, t67 := x2^x3, x6^x7
		hi := x4 ^ x5 ^ t67
		b0 ^= x1 ^ x3 ^ x5 ^ x7
		b1 ^= t23 ^ t67
		b2 ^= hi
		g[k] = x0 ^ x1 ^ t23 ^ hi
	}
	b3, b4 := g[1]^g[3], g[2]^g[3]
	fold := g[0] ^ g[1] ^ b4
	odd := bits.OnesCount64(fold&lane0)&1 |
		bits.OnesCount64(fold&lane1)&1<<1 |
		bits.OnesCount64(fold&lane2)&1<<2 |
		bits.OnesCount64(b0)&1<<3 |
		bits.OnesCount64(b1)&1<<4 |
		bits.OnesCount64(b2)&1<<5 |
		bits.OnesCount64(b3)&1<<6 |
		bits.OnesCount64(b4)&1<<7
	even := odd ^ -(bits.OnesCount64(fold)&1)&0xFF
	col := fold ^ fold>>32
	col ^= col >> 16
	col ^= col >> 8
	return uint32(lineTab[even]) | uint32(lineTab[odd])<<1 | uint32(colTab[byte(col)])<<16
}

// synMask selects the 22 parity bits of a packed code or syndrome: all of
// code[0] and code[1], and code[2] without its two unused low bits.
const synMask = 0xFCFFFF

// pack returns the three code bytes at the front of code in sectorCode's
// packed form.
func pack(code []byte) uint32 {
	_ = code[2]
	return uint32(code[0]) | uint32(code[1])<<8 | uint32(code[2])<<16
}

// Correct verifies data against code, fixing a single flipped bit in place
// if necessary. It returns the number of corrected bits (0 or 1), or
// ErrUncorrectable for multi-bit corruption.
func Correct(data []byte, code [CodeSize]byte) (int, error) {
	if len(data) != SectorSize {
		return 0, fmt.Errorf("%w: got %d bytes", ErrSectorSize, len(data))
	}
	return correct((*[SectorSize]byte)(data), pack(code[:]))
}

// correct is Correct on a packed stored code. The clean case is one
// sectorCode and one compare.
func correct(sec *[SectorSize]byte, stored uint32) (int, error) {
	// Syndrome: XOR of stored and recomputed codes.
	syn := (sectorCode(sec) ^ stored) & synMask
	if syn == 0 {
		return 0, nil
	}
	// For a single-bit error every even/odd parity pair disagrees in
	// exactly one member: each pair of syndrome bits must be 01 or 10.
	// The odd member (10) says the address bit is 1.
	const evens = 0x545555 // the even member of all 11 pairs
	if (syn^syn>>1)&evens != evens {
		return 0, ErrUncorrectable
	}
	byteAddr, bitAddr := 0, 0
	for k := 0; k < 8; k++ {
		byteAddr |= int(syn>>(2*k+1)&1) << k
	}
	for k := 0; k < 3; k++ {
		bitAddr |= int(syn>>(2*k+19)&1) << k
	}
	sec[byteAddr] ^= 1 << bitAddr
	return 1, nil
}

// checkPage validates a page data area against its concatenated codes.
func checkPage(data, codes []byte) error {
	if len(data)%SectorSize != 0 {
		return fmt.Errorf("%w: page of %d bytes is not sector-aligned", ErrSectorSize, len(data))
	}
	if len(codes) != len(data)/SectorSize*CodeSize {
		return fmt.Errorf("%w: %d code bytes for %d data bytes", ErrCodeSize, len(codes), len(data))
	}
	return nil
}

// ComputePage returns the concatenated ECC for a whole page data area
// (one 3-byte code per 256-byte sector). The result fits comfortably in
// the spare area: a 2048-byte page needs 8 sectors x 3 = 24 bytes of the
// 64-byte spare.
func ComputePage(data []byte) ([]byte, error) {
	codes := make([]byte, len(data)/SectorSize*CodeSize)
	if err := ComputePageInto(data, codes); err != nil {
		return nil, err
	}
	return codes, nil
}

// ComputePageInto is ComputePage into the caller's codes, which must hold
// exactly one code per sector of data — the sealing path writes straight
// into the spare area.
func ComputePageInto(data, codes []byte) error {
	if err := checkPage(data, codes); err != nil {
		return err
	}
	for ; len(data) > 0; data, codes = data[SectorSize:], codes[CodeSize:] {
		c := sectorCode((*[SectorSize]byte)(data))
		codes[0], codes[1], codes[2] = byte(c), byte(c>>8), byte(c>>16)
	}
	return nil
}

// CorrectPage verifies a whole page against its concatenated ECC,
// correcting up to one bit per sector. It returns the total corrected
// bits, and an error naming the first uncorrectable sector if there is
// one.
func CorrectPage(data, codes []byte) (int, error) {
	corrected, bad, err := CorrectPageSectors(data, codes)
	if err == nil && bad != nil {
		err = fmt.Errorf("sector %d: %w", bad[0], ErrUncorrectable)
	}
	return corrected, err
}

// CorrectPageSectors verifies a whole page against its concatenated ECC
// like CorrectPage, but does not stop at the first uncorrectable sector:
// every correctable sector is corrected in place and every uncorrectable
// sector index is collected, so a healing layer can decide whether a
// redundant source covers exactly the damaged sectors. It returns the
// total corrected bits and the (nil when clean) sorted list of
// uncorrectable sector indices. The only error is a size mismatch between
// data and codes.
func CorrectPageSectors(data, codes []byte) (corrected int, bad []int, err error) {
	if err := checkPage(data, codes); err != nil {
		return 0, nil, err
	}
	for i := 0; len(data) > 0; i, data, codes = i+1, data[SectorSize:], codes[CodeSize:] {
		n, err := correct((*[SectorSize]byte)(data), pack(codes))
		if err != nil {
			bad = append(bad, i)
		}
		corrected += n
	}
	return corrected, bad, nil
}
