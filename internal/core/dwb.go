package core

import "pdl/internal/diff"

// writeBuffer is the differential write buffer of section 4.2: a single
// page's worth of memory that collects differentials of logical pages and
// is written into a differential page in flash when it fills. It holds at
// most one differential per logical page — writing a new differential for
// a page removes the old one first (Step 3 of PDL_Writing).
type writeBuffer struct {
	capacity int
	used     int
	diffs    []diff.Differential
	index    map[uint32]int // pid -> position in diffs
}

func (b *writeBuffer) init(capacity int) {
	b.capacity = capacity
	b.index = make(map[uint32]int)
}

// clone returns a staging copy of the buffer: same capacity, the same
// buffered differentials in a private backing array. The batch write path
// stages against the copy and swaps it in only after the device batch
// commits, so a failed batch leaves the live buffer untouched.
func (b *writeBuffer) clone() writeBuffer {
	c := writeBuffer{capacity: b.capacity, used: b.used}
	c.diffs = append(make([]diff.Differential, 0, len(b.diffs)), b.diffs...)
	c.index = make(map[uint32]int, len(b.index))
	for pid, i := range b.index {
		c.index[pid] = i
	}
	return c
}

// free returns the remaining capacity in bytes.
func (b *writeBuffer) free() int { return b.capacity - b.used }

// empty reports whether the buffer holds no differentials.
func (b *writeBuffer) empty() bool { return len(b.diffs) == 0 }

// get returns the buffered differential for pid, if any.
func (b *writeBuffer) get(pid uint32) (diff.Differential, bool) {
	i, ok := b.index[pid]
	if !ok {
		return diff.Differential{}, false
	}
	return b.diffs[i], true
}

// add appends a differential. The caller has already checked capacity and
// removed any older differential for the same pid.
func (b *writeBuffer) add(d diff.Differential) {
	b.index[d.PID] = len(b.diffs)
	b.diffs = append(b.diffs, d)
	b.used += d.EncodedSize()
}

// remove drops the buffered differential for pid, if present. The vacated
// tail slot is zeroed so the backing array does not retain the removed
// differential's Range.Data byte slices (up to a page of dead data).
func (b *writeBuffer) remove(pid uint32) {
	i, ok := b.index[pid]
	if !ok {
		return
	}
	b.used -= b.diffs[i].EncodedSize()
	last := len(b.diffs) - 1
	if i != last {
		b.diffs[i] = b.diffs[last]
		b.index[b.diffs[i].PID] = i
	}
	b.diffs[last] = diff.Differential{}
	b.diffs = b.diffs[:last]
	delete(b.index, pid)
}

// clear empties the buffer, zeroing the backing array so flushed
// differentials (and their Range.Data slices) become collectable instead
// of living on indefinitely behind the truncated slice.
func (b *writeBuffer) clear() {
	clear(b.diffs)
	b.diffs = b.diffs[:0]
	b.used = 0
	clear(b.index)
}
