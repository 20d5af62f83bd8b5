// Package diff implements the page-differential codec of Kim, Whang, and
// Song (SIGMOD 2010, section 4.2).
//
// A page-differential captures the difference between the base page stored
// in flash memory and the up-to-date logical page in memory. Its wire form
// is
//
//	<size, physical page ID, creation time stamp, [offset, length, changed data]+>
//
// exactly as defined in the paper, with a leading record size so that
// multiple differentials can be packed into one differential page and
// parsed back. Because erased flash reads as 0xFF, a size field of 0xFFFF
// terminates the record sequence in a partially filled differential page.
//
// The wire record is the form a differential lives in: the store's write
// buffer, differential pages, differential cache and read path hold and merge
// records (Records, RecordKey, FindIn, ApplyRecord) and decode none. The
// decoded Differential is the right form in three places: as Compute's
// result, sized (EncodedSize) and then appended (AppendTo) once; where ranges
// are walked, the store's check that a record covers a corrupt base sector
// before it heals from it (Decode); and as the reference the tests hold the
// wire-form functions to (DecodeAll and Apply, the MatchesDecodeAll tests).
package diff

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math/bits"
)

// Errors returned by the codec.
var (
	// ErrCorrupt reports a differential record that cannot be decoded.
	ErrCorrupt = errors.New("diff: corrupt differential record")
	// ErrSizeMismatch reports pages of different lengths given to Compute.
	ErrSizeMismatch = errors.New("diff: base and current page sizes differ")
)

// Wire-format constants.
const (
	// headerSize is size(2) + pid(4) + ts(8) + nranges(2).
	headerSize = 16
	// rangeOverhead is off(2) + len(2) per changed range.
	rangeOverhead = 4
	// endMarker terminates the record sequence in a differential page.
	endMarker = 0xFFFF
)

// HeaderSize is the encoded size of a differential with no changed ranges.
const HeaderSize = headerSize

// RangeOverhead is the per-range metadata cost in the encoding. Compute
// coalesces nearby ranges when doing so shrinks the encoding.
const RangeOverhead = rangeOverhead

// Range is one changed byte range of a logical page.
type Range struct {
	// Off is the byte offset of the change within the logical page.
	Off int
	// Data is the up-to-date content of the range.
	Data []byte
}

// Differential is the difference between a base page in flash and the
// up-to-date logical page in memory, plus the identifying metadata the
// paper stores with it: the physical page ID of the logical page it
// belongs to and its creation time stamp.
type Differential struct {
	// PID identifies the logical page (the paper's "physical page ID",
	// the database-unique page identifier).
	PID uint32
	// TS is the creation time stamp used by crash recovery to arbitrate
	// between versions.
	TS uint64
	// Ranges are the changed byte ranges, in ascending offset order,
	// non-overlapping.
	Ranges []Range
}

// Compute derives the differential between base and cur for logical page
// pid at time stamp ts. Adjacent changed ranges separated by a gap smaller
// than the per-range overhead are coalesced, since encoding the unchanged
// gap bytes is cheaper than starting a new range.
//
// Compute is the heart of the paper's DBMS-independence argument: it needs
// only the two page images, not the history of update operations, so it can
// run entirely inside the flash driver. It runs once per reflection over
// two full page images, so the scan compares eight bytes per step (word
// loads with a byte-wise tail); the output is identical to a byte-at-a-time
// comparison.
func Compute(pid uint32, ts uint64, base, cur []byte) (Differential, error) {
	if len(base) != len(cur) {
		return Differential{}, fmt.Errorf("%w: %d vs %d", ErrSizeMismatch, len(base), len(cur))
	}
	d := Differential{PID: pid, TS: ts}
	n := len(cur)
	i := nextDiffering(base, cur, 0)
	for i < n {
		// Start of a changed range at i. Extend it while bytes differ, and
		// absorb equal-byte gaps shorter than rangeOverhead.
		start := i
		end := nextEqual(base, cur, i+1)
		for end < n {
			// end sits on an equal byte; measure the equal run, up to the
			// coalescing threshold.
			gap := end
			lim := end + rangeOverhead
			if lim > n {
				lim = n
			}
			for gap < lim && base[gap] == cur[gap] {
				gap++
			}
			if gap < n && gap-end < rangeOverhead && base[gap] != cur[gap] {
				end = nextEqual(base, cur, gap+1) // absorb the short gap
				continue
			}
			break
		}
		data := make([]byte, end-start)
		copy(data, cur[start:end])
		d.Ranges = append(d.Ranges, Range{Off: start, Data: data})
		i = nextDiffering(base, cur, end)
	}
	return d, nil
}

// nextDiffering returns the lowest index >= i at which a and b differ, or
// len(a) if none. Equal prefixes — the common case, since updates change a
// small fraction of a page — are skipped eight bytes per comparison.
func nextDiffering(a, b []byte, i int) int {
	n := len(a)
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// nextEqual returns the lowest index >= i at which a and b agree, or
// len(a) if none. The XOR of two words has a zero byte exactly where the
// inputs agree; the zero-byte trick finds the lowest one without a byte
// loop (the borrow it may propagate only corrupts lanes above the first
// zero, and only the first is used).
func nextEqual(a, b []byte, i int) int {
	const (
		ones = 0x0101010101010101
		tops = 0x8080808080808080
	)
	n := len(a)
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if z := (x - ones) & ^x & tops; z != 0 {
			return i + bits.TrailingZeros64(z)/8
		}
	}
	for ; i < n; i++ {
		if a[i] == b[i] {
			return i
		}
	}
	return n
}

// Empty reports whether the differential records no change.
func (d Differential) Empty() bool { return len(d.Ranges) == 0 }

// ChangedBytes returns the total number of bytes carried by the ranges.
func (d Differential) ChangedBytes() int {
	n := 0
	for _, r := range d.Ranges {
		n += len(r.Data)
	}
	return n
}

// EncodedSize returns the number of bytes AppendTo will produce. The paper
// compares this size against Max_Differential_Size and against the free
// space of the differential write buffer (Cases 1-3 of the PDL_Writing
// algorithm).
func (d Differential) EncodedSize() int {
	return headerSize + rangeOverhead*len(d.Ranges) + d.ChangedBytes()
}

// AppendTo appends the wire encoding of d to buf and returns the result.
func (d Differential) AppendTo(buf []byte) []byte {
	size := d.EncodedSize()
	buf = binary.LittleEndian.AppendUint16(buf, uint16(size))
	buf = binary.LittleEndian.AppendUint32(buf, d.PID)
	buf = binary.LittleEndian.AppendUint64(buf, d.TS)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(d.Ranges)))
	for _, r := range d.Ranges {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(r.Off))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Data)))
		buf = append(buf, r.Data...)
	}
	return buf
}

// Decode decodes one differential from the front of buf, returning it and
// the number of bytes consumed. A buffer whose first size field is the
// erased-flash end marker (or too short to hold a header) yields ErrCorrupt;
// use DecodeAll to scan a differential page tolerantly.
func Decode(buf []byte) (Differential, int, error) {
	if len(buf) < headerSize {
		return Differential{}, 0, fmt.Errorf("%w: short buffer (%d bytes)", ErrCorrupt, len(buf))
	}
	size := int(binary.LittleEndian.Uint16(buf))
	if size == endMarker || size < headerSize || size > len(buf) {
		return Differential{}, 0, fmt.Errorf("%w: size field %d", ErrCorrupt, size)
	}
	d := Differential{
		PID: binary.LittleEndian.Uint32(buf[2:]),
		TS:  binary.LittleEndian.Uint64(buf[6:]),
	}
	nr := int(binary.LittleEndian.Uint16(buf[14:]))
	off := headerSize
	for i := 0; i < nr; i++ {
		if off+rangeOverhead > size {
			return Differential{}, 0, fmt.Errorf("%w: range header past record end", ErrCorrupt)
		}
		ro := int(binary.LittleEndian.Uint16(buf[off:]))
		rl := int(binary.LittleEndian.Uint16(buf[off+2:]))
		off += rangeOverhead
		if off+rl > size {
			return Differential{}, 0, fmt.Errorf("%w: range data past record end", ErrCorrupt)
		}
		data := make([]byte, rl)
		copy(data, buf[off:off+rl])
		off += rl
		d.Ranges = append(d.Ranges, Range{Off: ro, Data: data})
	}
	if off != size {
		return Differential{}, 0, fmt.Errorf("%w: record size %d, decoded %d", ErrCorrupt, size, off)
	}
	return d, size, nil
}

// DecodeAll decodes every differential packed into a differential page's
// data area, stopping at the erased-flash end marker or at the first byte
// that cannot start a record. A torn trailing record (from a power failure
// mid-program) is ignored, which is the behaviour crash recovery relies on.
func DecodeAll(pageData []byte) []Differential {
	var out []Differential
	off := 0
	for off+headerSize <= len(pageData) {
		d, n, err := Decode(pageData[off:])
		if err != nil {
			return out
		}
		out = append(out, d)
		off += n
	}
	return out
}

// Records iterates over the encoded records packed into a differential
// page's data area, in page order, each as a subslice of pageData (no
// decoding, no allocation). Like DecodeAll it stops at the erased-flash end
// marker or at the first byte sequence that cannot be a record, so a torn
// trailing record is ignored. It accepts a page image cut at UsedPrefix.
func Records(pageData []byte) iter.Seq[[]byte] {
	return func(yield func(rec []byte) bool) {
		off := 0
		for off+headerSize <= len(pageData) {
			size := int(binary.LittleEndian.Uint16(pageData[off:]))
			if size == endMarker || size < headerSize || off+size > len(pageData) {
				return
			}
			r := pageData[off : off+size]
			if !validRecord(r) || !yield(r) {
				return
			}
			off += size
		}
	}
}

// RecordKey returns the logical page and the creation time stamp in the
// header of an encoded record yielded by Records.
func RecordKey(rec []byte) (pid uint32, ts uint64) {
	return binary.LittleEndian.Uint32(rec[2:]), binary.LittleEndian.Uint64(rec[6:])
}

// UsedPrefix returns the length of the well-formed record sequence at the
// front of a differential page's data area: everything Records, FindIn and
// DecodeAll will ever look at. The rest is erased padding or a torn tail.
func UsedPrefix(pageData []byte) int {
	n := 0
	for rec := range Records(pageData) {
		n += len(rec)
	}
	return n
}

// FindIn locates the newest differential record for pid in a differential
// page's data area, returning the encoded record as a subslice of pageData
// (see Records). Apply the result with ApplyRecord; the record aliases
// pageData and is only valid while pageData is.
func FindIn(pageData []byte, pid uint32) (rec []byte, ok bool) {
	var bestTS uint64
	for r := range Records(pageData) {
		if p, ts := RecordKey(r); p == pid && (!ok || ts > bestTS) {
			rec, bestTS, ok = r, ts, true
		}
	}
	return rec, ok
}

// validRecord reports whether rec (whose leading size field already equals
// len(rec)) is a well-formed differential record: its range headers and
// range data tile the record exactly. It accepts precisely the records
// Decode accepts, without copying any range data.
func validRecord(rec []byte) bool {
	nr := int(binary.LittleEndian.Uint16(rec[14:]))
	off := headerSize
	for i := 0; i < nr; i++ {
		if off+rangeOverhead > len(rec) {
			return false
		}
		off += rangeOverhead + int(binary.LittleEndian.Uint16(rec[off+2:]))
		if off > len(rec) {
			return false
		}
	}
	return off == len(rec)
}

// ApplyRecord overlays an encoded differential record (as returned by
// FindIn) onto page, straight from the wire form: no range is decoded into
// a heap copy first. Every range is validated — against the record and
// against the page bounds — before the first byte of page is touched, so a
// corrupt record returns ErrCorrupt with page unmodified.
func ApplyRecord(rec, page []byte) error {
	if len(rec) < headerSize || int(binary.LittleEndian.Uint16(rec)) != len(rec) || !validRecord(rec) {
		return fmt.Errorf("%w: malformed record of %d bytes", ErrCorrupt, len(rec))
	}
	nr := int(binary.LittleEndian.Uint16(rec[14:]))
	off := headerSize
	for i := 0; i < nr; i++ {
		ro := int(binary.LittleEndian.Uint16(rec[off:]))
		rl := int(binary.LittleEndian.Uint16(rec[off+2:]))
		if ro+rl > len(page) {
			return fmt.Errorf("%w: range [%d,%d) outside page of %d bytes",
				ErrCorrupt, ro, ro+rl, len(page))
		}
		off += rangeOverhead + rl
	}
	off = headerSize
	for i := 0; i < nr; i++ {
		ro := int(binary.LittleEndian.Uint16(rec[off:]))
		rl := int(binary.LittleEndian.Uint16(rec[off+2:]))
		off += rangeOverhead
		copy(page[ro:], rec[off:off+rl])
		off += rl
	}
	return nil
}

// Apply overlays the differential onto page, recreating the up-to-date
// logical page from a copy of its base page (the merge step of
// PDL_Reading). Every range is bounds-checked before the first byte is
// written, so a corrupt differential returns ErrCorrupt with page
// unmodified — never half-applied.
func (d Differential) Apply(page []byte) error {
	for _, r := range d.Ranges {
		if r.Off < 0 || r.Off+len(r.Data) > len(page) {
			return fmt.Errorf("%w: range [%d,%d) outside page of %d bytes",
				ErrCorrupt, r.Off, r.Off+len(r.Data), len(page))
		}
	}
	for _, r := range d.Ranges {
		copy(page[r.Off:], r.Data)
	}
	return nil
}
