// Package btree implements a B+-tree over the buffer pool with uint64 keys
// whose leaves hold the values: a leaf is a slotted page of (key, value)
// records, so a point read touches the pages of one root-to-leaf path and
// nothing else.
//
// The tree exercises the page-access pattern the paper's motivation cites
// (Wu et al., "An Efficient B-Tree Layer for Flash-Memory Storage Systems"
// [25]): small in-place modifications of index pages, the workload on which
// page-differential logging's writing-difference-only principle pays off
// most. A same-size overwrite changes a value's bytes and nothing else. A
// leaf that overflows first moves its front entries into its left sibling,
// then its tail into a right sibling the buffer pool holds, and splits only
// when neither takes any: full when both siblings are resident and full, by
// bytes otherwise. That keeps leaves full under the ascending, interleaved
// loads a serving layer sees, and never faults a page in to fill it.
// Deletes are lazy (entries are removed but nodes are not rebalanced),
// which is sufficient for the workloads in this module and keeps the page
// format simple.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pdl/internal/buffer"
)

// Errors returned by the tree, bare.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("btree: key not found")
	// ErrNoSpace reports that the tree's page range is exhausted.
	ErrNoSpace = errors.New("btree: page range exhausted")
	// ErrDuplicate reports an insert of an existing key.
	ErrDuplicate = errors.New("btree: duplicate key")
	// ErrValueTooLarge reports a value over MaxValueSize.
	ErrValueTooLarge = errors.New("btree: value too large")
)

// Node page layout within a logical page:
//
//	[0]    node type: 1 = leaf, 2 = internal
//	[1:3]  entry count n
//	[3:7]  leaf: next-leaf page id (0xFFFFFFFF = none); internal: unused
//	leaf:      [7:9]  data start d, the lowest record byte (the page size when empty)
//	           [9:..] n slots in key order, each off u16, vlen u16
//	           [d:]   records growing down from the page end: key u64, value;
//	                  bytes no slot names are dead until the leaf is rebuilt
//	internal:  [7:..] child0 u32, then n x (key u64, child u32)
//
// An internal node routes key k to child i where i is the first entry with
// k < keys[i], else the last child.
const (
	nodeHdrSize  = 7
	leafHdrSize  = 9
	slotSize     = 4
	recKeySize   = 8
	typeLeaf     = 1
	typeInternal = 2
	intEntrySize = 12
	noPage       = 0xFFFFFFFF
)

// Tree is a B+-tree occupying logical pages [first, first+numPages) of a
// buffer pool.
type Tree struct {
	pool  *buffer.Pool
	first uint32
	num   uint32

	pageSize int
	intCap   int // max keys per internal node

	root      uint32
	nextAlloc uint32 // bump allocator within the range
	height    int
	size      int

	// path is the last descent: the internal nodes from the root down and
	// the child position taken in each.
	path []step
	// scratch is one page: the image of a node being rebuilt or split, so
	// that a frame is not read after a fault may have evicted it, and Range's
	// copy of the leaf it walks.
	scratch []byte
	// newLeaf is one page: the image of a split's new leaf, written before
	// the old leaf's frame is rewritten.
	newLeaf []byte
}

// step is one internal node of a descent and the child position taken: 0 is
// child0, i > 0 the child of entry i-1.
type step struct {
	pid uint32
	pos int
}

func makeTree(pool *buffer.Pool, first, numPages uint32) (*Tree, error) {
	if numPages < 1 {
		return nil, fmt.Errorf("btree: need at least one page")
	}
	ps := pool.PageSize()
	t := &Tree{
		pool:     pool,
		first:    first,
		num:      numPages,
		pageSize: ps,
		intCap:   (ps - nodeHdrSize - 4) / intEntrySize,
		path:     make([]step, 0, 8),
		scratch:  make([]byte, ps),
		newLeaf:  make([]byte, ps),
	}
	if t.MaxValueSize() < 1 || t.intCap < 2 || ps > 0xFFFF {
		return nil, fmt.Errorf("btree: page size %d out of range", ps)
	}
	return t, nil
}

// New builds an empty tree over pages [first, first+numPages).
func New(pool *buffer.Pool, first, numPages uint32) (*Tree, error) {
	t, err := makeTree(pool, first, numPages)
	if err != nil {
		return nil, err
	}
	rootPID, err := t.alloc()
	if err != nil {
		return nil, err
	}
	buf, err := t.pool.GetNew(rootPID)
	if err != nil {
		return nil, err
	}
	initLeaf(buf, noPage)
	t.root = rootPID
	t.height = 1
	return t, nil
}

// State is the volatile tree metadata a caller must persist to reopen a
// tree over the same pages later (the page contents themselves live in
// flash; this is only the bootstrap: where the root is and how far the
// bump allocator got). The KV layer stores one State per bucket in its
// metadata page and rebuilds trees with Open after a restart or crash
// recovery.
type State struct {
	Root      uint32
	NextAlloc uint32
	Height    int
	Size      int
}

// State captures the tree's reopen metadata. It is only meaningful while
// no mutation is in flight.
func (t *Tree) State() State {
	return State{Root: t.root, NextAlloc: t.nextAlloc, Height: t.height, Size: t.size}
}

// Open rebuilds a tree over pages [first, first+numPages) from a
// previously captured State. The node pages must already exist (written
// through the pool's method before the State was captured); Open does not
// read them, it only validates the bootstrap against the range.
func Open(pool *buffer.Pool, first, numPages uint32, st State) (*Tree, error) {
	t, err := makeTree(pool, first, numPages)
	if err != nil {
		return nil, err
	}
	if st.NextAlloc < 1 || st.NextAlloc > numPages {
		return nil, fmt.Errorf("btree: reopen NextAlloc %d outside page range of %d", st.NextAlloc, numPages)
	}
	if st.Root < first || st.Root >= first+st.NextAlloc {
		return nil, fmt.Errorf("btree: reopen root %d outside allocated span [%d,%d)", st.Root, first, first+st.NextAlloc)
	}
	if st.Height < 1 || st.Size < 0 {
		return nil, fmt.Errorf("btree: reopen height %d / size %d invalid", st.Height, st.Size)
	}
	t.root = st.Root
	t.nextAlloc = st.NextAlloc
	t.height = st.Height
	t.size = st.Size
	return t, nil
}

// Size returns the number of keys in the tree.
func (t *Tree) Size() int { return t.size }

// Height returns the tree height (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// Leaves walks the leaf chain and returns how many leaves the tree has.
func (t *Tree) Leaves() (int, error) {
	_, buf, err := t.descend(0)
	if err != nil {
		return 0, err
	}
	n := 1
	for next := leafNext(buf); next != noPage; next = leafNext(buf) {
		if buf, err = t.pool.Get(next); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// MaxValueSize returns the largest value the tree stores: the largest of
// which a leaf holds two, so that an overflowing leaf always splits into
// two leaves that fit.
func (t *Tree) MaxValueSize() int {
	return (t.pageSize-leafHdrSize)/2 - slotSize - recKeySize
}

func (t *Tree) alloc() (uint32, error) {
	if t.nextAlloc >= t.num {
		return 0, ErrNoSpace
	}
	pid := t.first + t.nextAlloc
	t.nextAlloc++
	return pid, nil
}

// --- node accessors ---

func initNode(buf []byte, typ byte) {
	buf[0] = typ
	binary.LittleEndian.PutUint16(buf[1:], 0)
	binary.LittleEndian.PutUint32(buf[3:], noPage)
}

func nodeType(buf []byte) byte { return buf[0] }
func nodeN(buf []byte) int     { return int(binary.LittleEndian.Uint16(buf[1:])) }
func setNodeN(buf []byte, n int) {
	binary.LittleEndian.PutUint16(buf[1:], uint16(n))
}

func initLeaf(buf []byte, next uint32) {
	initNode(buf, typeLeaf)
	setLeafNext(buf, next)
	setLeafStart(buf, len(buf))
}

func leafNext(buf []byte) uint32 { return binary.LittleEndian.Uint32(buf[3:]) }
func setLeafNext(buf []byte, p uint32) {
	binary.LittleEndian.PutUint32(buf[3:], p)
}
func leafStart(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[7:])) }
func setLeafStart(buf []byte, off int) {
	binary.LittleEndian.PutUint16(buf[7:], uint16(off))
}

func leafSlot(buf []byte, i int) (off, vlen int) {
	s := buf[leafHdrSize+i*slotSize:]
	return int(binary.LittleEndian.Uint16(s)), int(binary.LittleEndian.Uint16(s[2:]))
}
func setLeafSlot(buf []byte, i, off, vlen int) {
	s := buf[leafHdrSize+i*slotSize:]
	binary.LittleEndian.PutUint16(s, uint16(off))
	binary.LittleEndian.PutUint16(s[2:], uint16(vlen))
}

func leafKey(buf []byte, i int) uint64 {
	off, _ := leafSlot(buf, i)
	return binary.LittleEndian.Uint64(buf[off:])
}
func leafVal(buf []byte, i int) []byte {
	off, vlen := leafSlot(buf, i)
	return buf[off+recKeySize : off+recKeySize+vlen]
}

// entrySize is what a record of a vlen-byte value costs a leaf, slot
// included.
func entrySize(vlen int) int { return slotSize + recKeySize + vlen }

// leafGap is the free run between a leaf's slots and its records.
func leafGap(buf []byte) int { return leafStart(buf) - leafHdrSize - slotSize*nodeN(buf) }

// leafBytes is what a leaf's live entries cost, slots included.
func leafBytes(buf []byte) int {
	b := 0
	for i := range nodeN(buf) {
		_, vlen := leafSlot(buf, i)
		b += entrySize(vlen)
	}
	return b
}

func intChild0(buf []byte) uint32 {
	return binary.LittleEndian.Uint32(buf[nodeHdrSize:])
}
func setIntChild0(buf []byte, c uint32) {
	binary.LittleEndian.PutUint32(buf[nodeHdrSize:], c)
}
func intKey(buf []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[nodeHdrSize+4+i*intEntrySize:])
}
func setIntKey(buf []byte, i int, k uint64) {
	binary.LittleEndian.PutUint64(buf[nodeHdrSize+4+i*intEntrySize:], k)
}
func intChild(buf []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(buf[nodeHdrSize+4+i*intEntrySize+8:])
}
func setIntEntry(buf []byte, i int, k uint64, c uint32) {
	binary.LittleEndian.PutUint64(buf[nodeHdrSize+4+i*intEntrySize:], k)
	binary.LittleEndian.PutUint32(buf[nodeHdrSize+4+i*intEntrySize+8:], c)
}

// intChildAt returns the child at position pos (0 is child0).
func intChildAt(buf []byte, pos int) uint32 {
	if pos == 0 {
		return intChild0(buf)
	}
	return intChild(buf, pos-1)
}

// leafSearch returns the index of the first key >= k.
func leafSearch(buf []byte, k uint64) int {
	lo, hi := 0, nodeN(buf)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(buf, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intPos returns the position of the child to follow for key k: the number
// of keys <= k.
func intPos(buf []byte, k uint64) int {
	lo, hi := 0, nodeN(buf)
	for lo < hi {
		mid := (lo + hi) / 2
		if intKey(buf, mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// descend walks from the root to the leaf that holds or would hold k,
// recording the internal nodes it passes in t.path, and returns the leaf
// and its frame.
func (t *Tree) descend(k uint64) (uint32, []byte, error) {
	t.path = t.path[:0]
	pid := t.root
	for {
		buf, err := t.pool.Get(pid)
		if err != nil {
			return 0, nil, err
		}
		if nodeType(buf) == typeLeaf {
			return pid, buf, nil
		}
		pos := intPos(buf, k)
		t.path = append(t.path, step{pid, pos})
		pid = intChildAt(buf, pos)
	}
}

// Get appends the value stored under k to out, or returns ErrNotFound.
func (t *Tree) Get(k uint64, out []byte) ([]byte, error) {
	_, buf, err := t.descend(k)
	if err != nil {
		return nil, err
	}
	i := leafSearch(buf, k)
	if i < nodeN(buf) && leafKey(buf, i) == k {
		return append(out, leafVal(buf, i)...), nil
	}
	return nil, ErrNotFound
}

type putMode uint8

const (
	upsert putMode = iota
	insertOnly
	updateOnly
)

// Put stores v under k, inserting the key or overwriting its value.
func (t *Tree) Put(k uint64, v []byte) error { return t.put(k, v, upsert) }

// Insert stores v under a new key k, failing with ErrDuplicate if k is
// present.
func (t *Tree) Insert(k uint64, v []byte) error { return t.put(k, v, insertOnly) }

// Update replaces the value under an existing key, failing with ErrNotFound
// if k is absent.
func (t *Tree) Update(k uint64, v []byte) error { return t.put(k, v, updateOnly) }

// put walks to k's leaf once. A value no longer than the one it replaces is
// written over it in place; anything else is added to the leaf, which is
// rebuilt without its dead bytes when only that makes room, and overflows
// into a sibling or a split when nothing does.
func (t *Tree) put(k uint64, v []byte, mode putMode) error {
	if len(v) > t.MaxValueSize() {
		return ErrValueTooLarge
	}
	pid, buf, err := t.descend(k)
	if err != nil {
		return err
	}
	n := nodeN(buf)
	i := leafSearch(buf, k)
	found := i < n && leafKey(buf, i) == k
	if found && mode == insertOnly {
		return ErrDuplicate
	}
	if !found && mode == updateOnly {
		return ErrNotFound
	}
	grow := entrySize(len(v))
	if found {
		off, vlen := leafSlot(buf, i)
		if len(v) <= vlen {
			copy(buf[off+recKeySize:], v)
			setLeafSlot(buf, i, off, len(v))
			return t.pool.MarkDirty(pid)
		}
		grow = len(v) - vlen
	}
	m := merged{src: buf, k: k, v: v, pos: i, replace: found}
	if recKeySize+len(v)+slotSize*m.added() <= leafGap(buf) {
		off := leafStart(buf) - recKeySize - len(v)
		binary.LittleEndian.PutUint64(buf[off:], k)
		copy(buf[off+recKeySize:], v)
		setLeafStart(buf, off)
		if !found {
			copy(buf[leafHdrSize+(i+1)*slotSize:], buf[leafHdrSize+i*slotSize:leafHdrSize+n*slotSize])
			setNodeN(buf, n+1)
		}
		setLeafSlot(buf, i, off, len(v))
		err = t.pool.MarkDirty(pid)
	} else if m.total = leafBytes(buf) + grow; m.total <= t.pageSize-leafHdrSize {
		if err = t.snapshot(pid, &m); err == nil {
			err = t.rebuild(pid, &m, 0, m.len(), leafNext(t.scratch))
		}
	} else {
		err = t.overflow(pid, &m)
	}
	if err == nil && !found {
		t.size++
	}
	return err
}

// merged is a leaf's entries with one put applied: the entries of the leaf
// image src with (k, v) inserted at pos, or replacing entry pos. With
// replace set and pos -1 it is src's entries unchanged.
type merged struct {
	src     []byte
	k       uint64
	v       []byte
	pos     int
	replace bool
	// total is what the entries cost a leaf, slots included, once the put
	// has found no room in the leaf's gap.
	total int
}

// added is how many entries the put adds: 0 or 1.
func (m *merged) added() int {
	if m.replace {
		return 0
	}
	return 1
}

func (m *merged) len() int { return nodeN(m.src) + m.added() }

// at returns entry j.
func (m *merged) at(j int) (uint64, []byte) {
	if j == m.pos {
		return m.k, m.v
	}
	if j > m.pos {
		j -= m.added()
	}
	return leafKey(m.src, j), leafVal(m.src, j)
}

func (m *merged) size(j int) int {
	if j == m.pos {
		return entrySize(len(m.v))
	}
	if j > m.pos {
		j -= m.added()
	}
	_, vlen := leafSlot(m.src, j)
	return entrySize(vlen)
}

// writeLeaf rebuilds dst as a leaf of entries [from, to) of m, packed, with
// next as its right neighbour. dst must not be m.src.
func writeLeaf(dst []byte, m *merged, from, to int, next uint32) {
	initLeaf(dst, next)
	insertLeaf(dst, m, from, to, 0)
}

// insertLeaf adds entries [from, to) of m to leaf dst as its entries from
// index at on; their keys fall between those of dst's entries at-1 and at.
// dst must have the room in its gap.
func insertLeaf(dst []byte, m *merged, from, to, at int) {
	n, off := nodeN(dst), leafStart(dst)
	copy(dst[leafHdrSize+(at+to-from)*slotSize:], dst[leafHdrSize+at*slotSize:leafHdrSize+n*slotSize])
	for j := from; j < to; j++ {
		k, v := m.at(j)
		off -= recKeySize + len(v)
		binary.LittleEndian.PutUint64(dst[off:], k)
		copy(dst[off+recKeySize:], v)
		setLeafSlot(dst, at+j-from, off, len(v))
	}
	setNodeN(dst, n+to-from)
	setLeafStart(dst, off)
}

// srcRange is the entries of m.src that are among m's entries [from, to).
func (m *merged) srcRange(from, to int) (int, int) {
	if !m.replace {
		if from > m.pos {
			from--
		}
		if to > m.pos {
			to--
		}
	}
	return from, to
}

// keepInPlace rewrites the leaf image m.src in place as entries [from, to)
// of m, with next as its right neighbour, without moving a record that
// stays: the other entries' slots go, and the put's record, if it stays,
// goes over a record that goes and is at least as long, or else under the
// lowest record that stays. It reports false, having changed nothing, when
// the leaf has no such room for it.
func (m *merged) keepInPlace(from, to int, next uint32) bool {
	buf := m.src
	a, b := m.srcRange(from, to)
	put := from <= m.pos && m.pos < to
	need := recKeySize + len(m.v)
	low, at := len(buf), -1
	for i := range nodeN(buf) {
		off, vlen := leafSlot(buf, i)
		if i >= a && i < b && (i != m.pos || !m.replace) {
			low = min(low, off)
		} else if put && at < 0 && recKeySize+vlen >= need {
			at = off
		}
	}
	if put {
		if at < 0 {
			at = low - need
		}
		low = min(low, at)
	}
	if low < leafHdrSize+slotSize*(to-from) {
		return false
	}
	copy(buf[leafHdrSize:], buf[leafHdrSize+a*slotSize:leafHdrSize+b*slotSize])
	if put {
		i := m.pos - from
		if !m.replace {
			copy(buf[leafHdrSize+(i+1)*slotSize:], buf[leafHdrSize+i*slotSize:leafHdrSize+(b-a)*slotSize])
		}
		binary.LittleEndian.PutUint64(buf[at:], m.k)
		copy(buf[at+recKeySize:], m.v)
		setLeafSlot(buf, i, at, len(m.v))
	}
	setNodeN(buf, to-from)
	setLeafStart(buf, low)
	setLeafNext(buf, next)
	return true
}

// snapshot copies the leaf at pid into t.scratch and points m at the copy,
// so that the leaf's frame may be rewritten from it.
func (t *Tree) snapshot(pid uint32, m *merged) error {
	buf, err := t.pool.Get(pid)
	if err != nil {
		return err
	}
	copy(t.scratch, buf)
	m.src = t.scratch
	return nil
}

// rebuild rewrites the leaf at pid as entries [from, to) of m.
func (t *Tree) rebuild(pid uint32, m *merged, from, to int, next uint32) error {
	buf, err := t.pool.Get(pid)
	if err != nil {
		return err
	}
	writeLeaf(buf, m, from, to, next)
	return t.pool.MarkDirty(pid)
}

// shrink rewrites the leaf at pid, whose frame m.src is, as entries
// [from, to) of m: in place when no record that stays has to move, and
// rebuilt from a snapshot otherwise.
func (t *Tree) shrink(pid uint32, m *merged, from, to int, next uint32) error {
	if m.keepInPlace(from, to, next) {
		return t.pool.MarkDirty(pid)
	}
	if err := t.snapshot(pid, m); err != nil {
		return err
	}
	return t.rebuild(pid, m, from, to, next)
}

// overflow places m, the entries of the leaf at pid with a put applied, which
// no longer fit one leaf. The leaf's siblings under the same parent come
// first. The front of m moves into the left sibling for as long as it has
// room. Failing that, the fewest entries of m's tail that leave the leaf room
// for one more entry like the put's move into the right sibling, if the pool
// holds it: a right sibling is never faulted in to be filled. Either way the
// parent's separator follows. When no sibling takes entries, m splits into
// the leaf and a new right sibling. The leaf stays full when both siblings
// are resident and full (or absent), as under ascending and interleaved
// loads, whose next keys go right of the split; the halves are closest in
// bytes otherwise.
func (t *Tree) overflow(pid uint32, m *merged) error {
	dense := true
	for side := -1; side <= 1 && len(t.path) > 0; side += 2 {
		moved, full, err := t.rotate(pid, m, side)
		if moved || err != nil {
			return err
		}
		dense = dense && full
	}
	// A split takes at most one new page a level, and one more for a new
	// root: refuse it before anything is written when they are not there.
	if t.num-t.nextAlloc < uint32(len(t.path))+2 {
		return ErrNoSpace
	}
	buf, err := t.pool.Get(pid)
	if err != nil {
		return err
	}
	m.src = buf
	// With every entry at most half a leaf, both sides fit either way.
	n, room := m.len(), t.pageSize-leafHdrSize
	s, left := 1, m.size(0)
	if dense {
		for s < n-1 && left+m.size(s) <= room {
			left += m.size(s)
			s++
		}
	} else {
		for s < n-1 && 2*(left+m.size(s)) <= m.total+m.size(s) {
			left += m.size(s)
			s++
		}
	}
	sep, _ := m.at(s)
	right, err := t.alloc()
	if err != nil {
		return err
	}
	writeLeaf(t.newLeaf, m, s, n, leafNext(buf))
	if err := t.shrink(pid, m, 0, s, right); err != nil {
		return err
	}
	rbuf, err := t.pool.GetNew(right)
	if err != nil {
		return err
	}
	copy(rbuf, t.newLeaf)
	return t.promote(sep, right)
}

// rotate moves entries of m, the leaf at pid with a put applied, into the
// leaf's sibling on one side (-1 left, +1 right) under the parent last on
// t.path: the front of m into a left sibling for as long as it has room, the
// fewest entries of m's tail that leave the leaf room for one more entry
// like the put's into a right one. The separator between the two becomes
// the right page's first key. It reports whether it moved entries, and
// whether the side is full: without a sibling under the parent, or with one
// that was resident and takes none.
//
// The rotation itself holds the parent's, the sibling's and the leaf's
// frames at once, which is sound only while every Get is a hit: it runs on
// resident pages alone. A left sibling is faulted in first, as the fill of
// a descending or random-order load needs; a right one never is.
func (t *Tree) rotate(pid uint32, m *merged, side int) (moved, full bool, err error) {
	parent := t.path[len(t.path)-1]
	pbuf, err := t.pool.Get(parent.pid)
	if err != nil {
		return false, false, err
	}
	spos := parent.pos + side
	if spos < 0 || spos > nodeN(pbuf) {
		return false, true, nil
	}
	sib := intChildAt(pbuf, spos)
	held := t.pool.Resident(sib)
	if side < 0 && !held {
		// Each fault may evict the page fetched before it.
		for _, p := range [...]uint32{sib, pid, sib} {
			if !t.pool.Resident(p) {
				if _, err := t.pool.Get(p); err != nil {
					return false, false, err
				}
			}
		}
		if !t.pool.Resident(parent.pid) {
			return false, false, nil
		}
		if pbuf, err = t.pool.Get(parent.pid); err != nil {
			return false, false, err
		}
	}
	if !t.pool.Resident(sib) || !t.pool.Resident(pid) {
		return false, false, nil
	}
	sbuf, err := t.pool.Get(sib)
	if err != nil {
		return false, false, err
	}
	if m.src, err = t.pool.Get(pid); err != nil {
		return false, false, err
	}
	n, room, total := m.len(), t.pageSize-leafHdrSize, m.total
	free, bytes := room-leafBytes(sbuf), 0
	from, to := 0, 0 // the entries that move
	if side < 0 {
		for to < n-1 && bytes+m.size(to) <= free {
			bytes += m.size(to)
			to++
		}
	} else {
		from, to = n, n
		// Enough that the leaf takes one more entry like the put's: an
		// interleaved load's next key lands in the same leaf.
		for from > 1 && total-bytes+entrySize(len(m.v)) > room && bytes+m.size(from-1) <= free {
			from--
			bytes += m.size(from)
		}
	}
	if from == to || total-bytes > room {
		return false, held, nil
	}
	if bytes > leafGap(sbuf) {
		// The sibling has the room only once its dead bytes go.
		all := merged{pos: -1, replace: true}
		if err := t.snapshot(sib, &all); err != nil {
			return false, false, err
		}
		if err := t.rebuild(sib, &all, 0, all.len(), leafNext(t.scratch)); err != nil {
			return false, false, err
		}
	}
	var sep uint64
	if side < 0 {
		insertLeaf(sbuf, m, from, to, nodeN(sbuf))
		sep, _ = m.at(to)
		from, to = to, n // what the leaf keeps
	} else {
		insertLeaf(sbuf, m, from, to, 0)
		sep, _ = m.at(from)
		from, to = 0, from
	}
	if err := t.pool.MarkDirty(sib); err != nil {
		return false, false, err
	}
	if err := t.shrink(pid, m, from, to, leafNext(m.src)); err != nil {
		return false, false, err
	}
	setIntKey(pbuf, min(parent.pos, spos), sep)
	return true, false, t.pool.MarkDirty(parent.pid)
}

// promote adds separator k with its right child to the internal nodes of
// t.path, bottom up, splitting the full ones, and grows a new root when the
// old one splits.
func (t *Tree) promote(k uint64, child uint32) error {
	for d := len(t.path) - 1; d >= 0; d-- {
		st := t.path[d]
		buf, err := t.pool.Get(st.pid)
		if err != nil {
			return err
		}
		n := nodeN(buf)
		if n < t.intCap {
			at := nodeHdrSize + 4 + st.pos*intEntrySize
			copy(buf[at+intEntrySize:], buf[at:nodeHdrSize+4+n*intEntrySize])
			setIntEntry(buf, st.pos, k, child)
			setNodeN(buf, n+1)
			return t.pool.MarkDirty(st.pid)
		}
		if k, child, err = t.splitInternal(st.pid, buf, st.pos, k, child); err != nil {
			return err
		}
	}
	rootPID, err := t.alloc()
	if err != nil {
		return err
	}
	buf, err := t.pool.GetNew(rootPID)
	if err != nil {
		return err
	}
	initNode(buf, typeInternal)
	setIntChild0(buf, t.root)
	setIntEntry(buf, 0, k, child)
	setNodeN(buf, 1)
	t.root = rootPID
	t.height++
	return nil
}

// splitInternal splits the full internal node at pid (buf is its frame),
// which needs (pk, pc) as entry pos, and returns the separator it promotes
// and the new right node.
func (t *Tree) splitInternal(pid uint32, buf []byte, pos int, pk uint64, pc uint32) (uint64, uint32, error) {
	src := t.scratch
	copy(src, buf)
	// Entry j and child c of the node with (pk, pc) inserted.
	key := func(j int) uint64 {
		switch {
		case j < pos:
			return intKey(src, j)
		case j == pos:
			return pk
		}
		return intKey(src, j-1)
	}
	child := func(c int) uint32 {
		switch {
		case c <= pos:
			return intChildAt(src, c)
		case c == pos+1:
			return pc
		}
		return intChildAt(src, c-1)
	}
	keys := nodeN(src) + 1
	mid := keys / 2
	right, err := t.alloc()
	if err != nil {
		return 0, noPage, err
	}
	rbuf, err := t.pool.GetNew(right)
	if err != nil {
		return 0, noPage, err
	}
	initNode(rbuf, typeInternal)
	setIntChild0(rbuf, child(mid+1))
	for j := mid + 1; j < keys; j++ {
		setIntEntry(rbuf, j-mid-1, key(j), child(j+1))
	}
	setNodeN(rbuf, keys-mid-1)
	if buf, err = t.pool.Get(pid); err != nil {
		return 0, noPage, err
	}
	for j := pos; j < mid; j++ { // entries before pos are where they were
		setIntEntry(buf, j, key(j), child(j+1))
	}
	setNodeN(buf, mid)
	if err := t.pool.MarkDirty(pid); err != nil {
		return 0, noPage, err
	}
	return key(mid), right, nil
}

// Delete removes k (lazily: no rebalancing). The record's bytes stay dead
// in the leaf until a put rebuilds it.
func (t *Tree) Delete(k uint64) error {
	pid, buf, err := t.descend(k)
	if err != nil {
		return err
	}
	n := nodeN(buf)
	i := leafSearch(buf, k)
	if i >= n || leafKey(buf, i) != k {
		return ErrNotFound
	}
	copy(buf[leafHdrSize+i*slotSize:], buf[leafHdrSize+(i+1)*slotSize:leafHdrSize+n*slotSize])
	setNodeN(buf, n-1)
	t.size--
	return t.pool.MarkDirty(pid)
}

// Range calls fn for every (k, v) with lo <= k <= hi in ascending order,
// stopping early if fn returns false. v is good until fn returns. fn may use
// the tree's pool but must not modify the tree.
func (t *Tree) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) error {
	_, buf, err := t.descend(lo)
	if err != nil {
		return err
	}
	for {
		// fn may use the pool, and a fault there may evict this leaf: walk
		// a copy of it.
		leaf := t.scratch
		copy(leaf, buf)
		n := nodeN(leaf)
		for i := leafSearch(leaf, lo); i < n; i++ {
			k := leafKey(leaf, i)
			if k > hi || !fn(k, leafVal(leaf, i)) {
				return nil
			}
		}
		next := leafNext(leaf)
		if next == noPage {
			return nil
		}
		if buf, err = t.pool.Get(next); err != nil {
			return err
		}
	}
}

// Flush writes all dirty tree pages through to flash. The pool collects
// them into one pid-ordered write batch, so a checkpoint costs the device a
// single batched program sequence regardless of how many node pages a
// burst of splits dirtied.
func (t *Tree) Flush() error { return t.pool.Flush() }
