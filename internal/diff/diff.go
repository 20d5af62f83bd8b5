// Package diff implements the page-differential codec of Kim, Whang, and
// Song (SIGMOD 2010, section 4.2).
//
// A page-differential captures the difference between the base page stored
// in flash memory and the up-to-date logical page in memory. Its wire form
// is
//
//	<size, physical page ID, creation time stamp, base distance, [offset, length, changed data]+>
//
// the paper's <size, pid, ts, ranges> with one field more, in a 15-byte
// header: size (2 bytes), pid (4), time stamp (6: MaxTimeStamp) and base
// distance (3: MaxBaseDistance), then 3 bytes of offset (2) and length (1)
// in front of each range's data. A changed run longer than 255 bytes is
// encoded as consecutive ranges. The size lets several differentials be
// packed into one differential page and parsed back, and the ranges run to
// the end it sets. Because erased flash reads as 0xFF, a size field of
// 0xFFFF terminates the record sequence in a partially filled differential
// page.
//
// The base distance names the base page the differential was computed
// against: the creation time stamp minus the base page's, in 24 bits, so
// the name is exact. The paper's recovery replays a page's newest
// differential onto the newest base page below it, which is only right
// while the base it was computed against survives; a record that names its
// base lets recovery tell a lost base from a superseded one (RecordBase).
// The record carries no range count: the size field, and the ranges tiling
// the record up to it, imply one. Nothing versions the format, so records
// written with an earlier header (16 or 18 bytes) are not readable.
//
// The wire record is the form a differential lives in: the store's write
// buffer, differential pages, differential cache and read path hold and merge
// records (Records, RecordKey, RecordBase, FindIn, ApplyRecord) and decode
// none. The decoded Differential is the right form in three places: as
// Compute's result, sized (EncodedSize) and then appended (AppendTo) once;
// where ranges are walked, the store's check that a record covers a corrupt
// base sector before it heals from it (Decode); and as the reference the
// tests hold the wire-form functions to (DecodeAll and Apply, the
// MatchesDecodeAll tests).
package diff

import (
	"bytes"
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
	// headerSize is size(2) + pid(4) + ts(6) + base distance(3).
	headerSize = 15
	// rangeOverhead is off(2) + len(1) per encoded range.
	rangeOverhead = 3
	// maxRangeLen is the longest range one range header carries.
	maxRangeLen = 0xFF
	// endMarker terminates the record sequence in a differential page.
	endMarker = 0xFFFF
)

// HeaderSize is the encoded size of a differential with no changed ranges.
const HeaderSize = headerSize

// MaxPageSize is the largest page a record addresses: its offsets are 16
// bits wide.
const MaxPageSize = 1 << 16

// MaxRecordSize is the largest encoded differential: its size field is 16
// bits wide, and a size of 0xFFFF is the end marker.
const MaxRecordSize = endMarker - 1

// MaxBaseDistance is the largest gap between a differential's time stamp and
// its base page's that a record carries: the field is 24 bits wide. A
// writer whose base is further back writes a new base page instead.
const MaxBaseDistance = 1<<24 - 1

// MaxTimeStamp is the largest creation time stamp a record carries: the
// field is 48 bits wide. A writer refuses a write it would have to stamp
// past it.
const MaxTimeStamp = 1<<48 - 1

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
	// Base is the creation time stamp of the base page the differential was
	// computed against. Compute leaves it zero; the caller names the base
	// before AppendTo, which encodes TS - Base and requires it to be at most
	// MaxBaseDistance.
	Base uint64
	// Ranges are the changed byte ranges, in ascending offset order,
	// non-overlapping. A range may be of any length: the encoding splits
	// one longer than 255 bytes into consecutive ranges.
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
// two full page images, so equal stretches are skipped by the runtime's
// vector compare (see nextDiffering): on a 2-core Xeon VM an identical 2KB
// page takes about 90ns and one with a 41-byte change 190ns, against 370ns
// and 530ns for an eight-byte word loop. The output is identical to a
// byte-at-a-time comparison.
//
// Each range's Data is a subslice of cur, valid while cur is unchanged: the
// result is meant to be sized and appended (EncodedSize, AppendTo) before
// the page changes again. The ranges take one allocation (two past 16
// ranges), none when the pages are identical.
func Compute(pid uint32, ts uint64, base, cur []byte) (Differential, error) {
	if len(base) != len(cur) {
		return Differential{}, fmt.Errorf("%w: %d vs %d", ErrSizeMismatch, len(base), len(cur))
	}
	d := Differential{PID: pid, TS: ts}
	if i := nextDiffering(base, cur, 0); i < len(cur) {
		d.Ranges = changedRanges(base, cur, i)
	}
	return d, nil
}

// changedRanges returns the changed ranges of cur against base, the first of
// which starts at i, in one exactly sized slice.
func changedRanges(base, cur []byte, i int) []Range {
	var found [16]Range // the ranges of a typical update, off the heap until counted
	rs := found[:0]
	n := len(cur)
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
		rs = append(rs, Range{Off: start, Data: cur[start:end:end]})
		i = nextDiffering(base, cur, end)
	}
	return append(make([]Range, 0, len(rs)), rs...)
}

// nextDiffering returns the lowest index >= i at which a and b differ, or
// len(a) if none. Equal stretches — the common case, since updates change a
// small fraction of a page — are skipped by bytes.Equal (the runtime's
// vectorised memequal), 256 bytes per call and then 64, and the 64-byte
// block that differs is searched eight bytes per comparison.
func nextDiffering(a, b []byte, i int) int {
	n := len(a)
	for i+256 <= n && bytes.Equal(a[i:i+256], b[i:i+256]) {
		i += 256
	}
	for i+64 <= n && bytes.Equal(a[i:i+64], b[i:i+64]) {
		i += 64
	}
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

// EncodedSize returns the number of bytes AppendTo will produce. The paper
// compares this size against Max_Differential_Size and against the free
// space of the differential write buffer (Cases 1-3 of the PDL_Writing
// algorithm).
func (d Differential) EncodedSize() int {
	n := headerSize
	for _, r := range d.Ranges {
		// One range header per maxRangeLen bytes, and one for an empty range.
		n += rangeOverhead*max(1, (len(r.Data)+maxRangeLen-1)/maxRangeLen) + len(r.Data)
	}
	return n
}

// AppendTo appends the wire encoding of d to buf and returns the result. It
// panics if d.TS is past MaxTimeStamp or further than MaxBaseDistance from
// d.Base, which the record cannot carry.
func (d Differential) AppendTo(buf []byte) []byte {
	dist := d.TS - d.Base
	if d.TS > MaxTimeStamp || dist > MaxBaseDistance {
		panic(fmt.Sprintf("diff: time stamp %d of base %d does not fit a record", d.TS, d.Base))
	}
	size := d.EncodedSize()
	buf = binary.LittleEndian.AppendUint16(buf, uint16(size))
	buf = binary.LittleEndian.AppendUint32(buf, d.PID)
	buf = append(buf, byte(d.TS), byte(d.TS>>8), byte(d.TS>>16), byte(d.TS>>24), byte(d.TS>>32), byte(d.TS>>40))
	buf = append(buf, byte(dist), byte(dist>>8), byte(dist>>16))
	for _, r := range d.Ranges {
		off, data := r.Off, r.Data
		for {
			n := min(len(data), maxRangeLen)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(off))
			buf = append(buf, byte(n))
			buf = append(buf, data[:n]...)
			off, data = off+n, data[n:]
			if len(data) == 0 {
				break
			}
		}
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
	pid, ts := RecordKey(buf)
	d := Differential{PID: pid, TS: ts, Base: RecordBase(buf)}
	off := headerSize
	for off < size {
		if off+rangeOverhead > size {
			return Differential{}, 0, fmt.Errorf("%w: range header past record end", ErrCorrupt)
		}
		ro, rl := rangeAt(buf, off)
		off += rangeOverhead
		if off+rl > size {
			return Differential{}, 0, fmt.Errorf("%w: range data past record end", ErrCorrupt)
		}
		data := make([]byte, rl)
		copy(data, buf[off:off+rl])
		off += rl
		d.Ranges = append(d.Ranges, Range{Off: ro, Data: data})
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
	// The time stamp is bytes [6:12): the top six of the word at 4.
	return binary.LittleEndian.Uint32(rec[2:]), binary.LittleEndian.Uint64(rec[4:]) >> 16
}

// RecordBase returns the creation time stamp of the base page an encoded
// record yielded by Records was computed against.
func RecordBase(rec []byte) uint64 {
	// The distance is bytes [12:15): the top three of the word at 11.
	_, ts := RecordKey(rec)
	return ts - uint64(binary.LittleEndian.Uint32(rec[11:])>>8)
}

// rangeAt returns the offset and length in the range header at rec[off:].
func rangeAt(rec []byte, off int) (ro, rl int) {
	return int(binary.LittleEndian.Uint16(rec[off:])), int(rec[off+2])
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
	off := headerSize
	for off < len(rec) {
		if off+rangeOverhead > len(rec) {
			return false
		}
		off += rangeOverhead + int(rec[off+2])
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
	for off := headerSize; off < len(rec); {
		ro, rl := rangeAt(rec, off)
		if ro+rl > len(page) {
			return fmt.Errorf("%w: range [%d,%d) outside page of %d bytes",
				ErrCorrupt, ro, ro+rl, len(page))
		}
		off += rangeOverhead + rl
	}
	for off := headerSize; off < len(rec); {
		ro, rl := rangeAt(rec, off)
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
