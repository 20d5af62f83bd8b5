package core

import (
	"encoding/binary"

	"pdl/internal/diff"
)

// writeBuffer is the differential write buffer of section 4.2: a single
// page's worth of memory that collects differentials of logical pages and
// is written into a differential page in flash when it fills. It is that
// page: slab holds the buffered differentials as wire records back to back,
// in the form a differential page, the differential cache and the read
// path's merge all use, so a differential is encoded once, when it enters,
// and a spill is a copy. It holds at most one record per logical page —
// writing a new differential for a page removes the old one first (Step 3 of
// PDL_Writing).
type writeBuffer struct {
	// slab is the records; its capacity is the page size and never changes.
	slab []byte
	// index maps a pid to the offset of its record in slab: every ReadPage
	// asks the buffer first, and a walk over the record headers costs ten
	// times the lookup at the usual fill.
	index map[uint32]int
}

// recordAt returns the wire record that starts at offset off of buf, a run of
// well-formed records: a record leads with its own size.
func recordAt(buf []byte, off int) []byte {
	return buf[off : off+int(binary.LittleEndian.Uint16(buf[off:]))]
}

// packDiffPage makes page the image of a differential page holding recs: the
// records, then the erased-flash byte to the end, so the unused space
// terminates the record sequence.
func packDiffPage(page, recs []byte) {
	tail := page[copy(page, recs):]
	for i := range tail {
		tail[i] = 0xFF
	}
}

func (b *writeBuffer) init(capacity int) {
	b.slab = make([]byte, 0, capacity)
	b.index = make(map[uint32]int)
}

// clone returns a staging copy of the buffer: the same records in a private
// slab. The batch write path stages against the copy and swaps it in only
// after the device batch commits, so a failed batch leaves the live buffer
// untouched.
func (b *writeBuffer) clone() writeBuffer {
	c := writeBuffer{slab: append(make([]byte, 0, cap(b.slab)), b.slab...)}
	c.index = make(map[uint32]int, len(b.index))
	for pid, off := range b.index {
		c.index[pid] = off
	}
	return c
}

// free returns the remaining capacity in bytes.
func (b *writeBuffer) free() int { return cap(b.slab) - len(b.slab) }

// empty reports whether the buffer holds no differentials.
func (b *writeBuffer) empty() bool { return len(b.slab) == 0 }

// get returns the buffered record for pid, if any. It aliases the slab: good
// while the caller holds the shard lock.
func (b *writeBuffer) get(pid uint32) ([]byte, bool) {
	off, ok := b.index[pid]
	if !ok {
		return nil, false
	}
	return recordAt(b.slab, off), true
}

// add appends d's record. The caller has already checked capacity and
// removed any older differential for the same pid.
func (b *writeBuffer) add(d diff.Differential) {
	b.index[d.PID] = len(b.slab)
	b.slab = d.AppendTo(b.slab)
}

// remove drops the buffered record for pid, if present, closing the gap: the
// records behind it keep their order and move down by its length.
func (b *writeBuffer) remove(pid uint32) {
	off, ok := b.index[pid]
	if !ok {
		return
	}
	delete(b.index, pid)
	n := len(recordAt(b.slab, off))
	b.slab = append(b.slab[:off], b.slab[off+n:]...)
	b.reindex(off)
}

// restore makes the buffer hold exactly the records of saved, a copy of its
// slab taken earlier: the undo of a write step that failed.
func (b *writeBuffer) restore(saved []byte) {
	b.slab = append(b.slab[:0], saved...)
	clear(b.index)
	b.reindex(0)
}

// reindex points the index at the records from offset off on.
func (b *writeBuffer) reindex(off int) {
	for off < len(b.slab) {
		rec := recordAt(b.slab, off)
		pid, _ := diff.RecordKey(rec)
		b.index[pid] = off
		off += len(rec)
	}
}

// clear empties the buffer.
func (b *writeBuffer) clear() {
	b.slab = b.slab[:0]
	clear(b.index)
}
