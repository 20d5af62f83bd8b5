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
// leaf that overflows first moves its front entries into its left sibling
// and splits by bytes only when that sibling is full, which keeps leaves
// near full under the ascending, interleaved loads a serving layer sees.
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
	// scratch is one page: the image of the node being rebuilt, split or
	// rotated, so that no two pool frames are held at once, and Range's copy
	// of the leaf it walks.
	scratch []byte
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
// into its left sibling or a split when nothing does.
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
	switch {
	case recKeySize+len(v)+slotSize*m.added() <= leafGap(buf):
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
	case leafBytes(buf)+grow <= t.pageSize-leafHdrSize:
		if err = t.snapshot(pid, &m); err == nil {
			err = t.rebuild(pid, &m, 0, m.len(), leafNext(t.scratch))
		}
	default:
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
	_, v := m.at(j)
	return entrySize(len(v))
}

// bytes is what the entries cost a leaf, slots included.
func (m *merged) bytes() int {
	b := 0
	for j := range m.len() {
		b += m.size(j)
	}
	return b
}

// writeLeaf rebuilds dst as a leaf of entries [from, to) of m, packed, with
// next as its right neighbour. dst must not be m.src.
func writeLeaf(dst []byte, m *merged, from, to int, next uint32) {
	initLeaf(dst, next)
	appendLeaf(dst, m, from, to)
}

// appendLeaf adds entries [from, to) of m after the last entry of leaf dst,
// whose keys are all smaller. dst must have the room in its gap.
func appendLeaf(dst []byte, m *merged, from, to int) {
	n, off := nodeN(dst), leafStart(dst)
	for j := from; j < to; j++ {
		k, v := m.at(j)
		off -= recKeySize + len(v)
		binary.LittleEndian.PutUint64(dst[off:], k)
		copy(dst[off+recKeySize:], v)
		setLeafSlot(dst, n, off, len(v))
		n++
	}
	setNodeN(dst, n)
	setLeafStart(dst, off)
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

// overflow places m, the entries of the leaf at pid (m.src is its frame)
// with a put applied that no longer fit one leaf. When the leaf has a left
// sibling under the same parent, the front of m moves into that sibling for
// as long as it has room, provided the rest then fits the leaf, and the
// parent's separator rises to the leaf's new first key. Otherwise m splits
// by bytes into the leaf and a new right sibling.
func (t *Tree) overflow(pid uint32, m *merged) error {
	if len(t.path) > 0 && t.path[len(t.path)-1].pos > 0 {
		moved, err := t.rotateLeft(pid, m)
		if moved || err != nil {
			return err
		}
	}
	// A split takes at most one new page a level, and one more for a new
	// root: refuse it before anything is written when they are not there.
	if t.num-t.nextAlloc < uint32(len(t.path))+2 {
		return ErrNoSpace
	}
	if err := t.snapshot(pid, m); err != nil {
		return err
	}
	// Split where the halves' bytes are closest: with every entry at most
	// half a leaf, both halves then fit.
	n, total := m.len(), m.bytes()
	s, left := 1, m.size(0)
	for s < n-1 && 2*(left+m.size(s)) <= total+m.size(s) {
		left += m.size(s)
		s++
	}
	right, err := t.alloc()
	if err != nil {
		return err
	}
	rbuf, err := t.pool.GetNew(right)
	if err != nil {
		return err
	}
	writeLeaf(rbuf, m, s, n, leafNext(t.scratch))
	if err := t.rebuild(pid, m, 0, s, right); err != nil {
		return err
	}
	sep, _ := m.at(s)
	return t.promote(sep, right)
}

// rotateLeft moves the front of m into the left sibling of the leaf at pid
// if the sibling has room for at least one entry and the rest then fits the
// leaf; it reports whether it did. m.src is the leaf's frame on entry.
func (t *Tree) rotateLeft(pid uint32, m *merged) (bool, error) {
	parent := t.path[len(t.path)-1]
	pbuf, err := t.pool.Get(parent.pid)
	if err != nil {
		return false, err
	}
	sib := intChildAt(pbuf, parent.pos-1)
	sbuf, err := t.pool.Get(sib)
	if err != nil {
		return false, err
	}
	room, gap := t.pageSize-leafHdrSize-leafBytes(sbuf), leafGap(sbuf)
	if m.src, err = t.pool.Get(pid); err != nil {
		return false, err
	}
	n, mv, moved := m.len(), 0, 0
	for mv < n-1 && moved+m.size(mv) <= room {
		moved += m.size(mv)
		mv++
	}
	if mv == 0 || m.bytes()-moved > t.pageSize-leafHdrSize {
		return false, nil
	}
	if moved > gap {
		// The sibling has the room only once its dead bytes go.
		all := merged{pos: -1, replace: true}
		if err := t.snapshot(sib, &all); err != nil {
			return false, err
		}
		if err := t.rebuild(sib, &all, 0, all.len(), leafNext(t.scratch)); err != nil {
			return false, err
		}
	}
	if err := t.snapshot(pid, m); err != nil {
		return false, err
	}
	if sbuf, err = t.pool.Get(sib); err != nil {
		return false, err
	}
	appendLeaf(sbuf, m, 0, mv)
	if err := t.pool.MarkDirty(sib); err != nil {
		return false, err
	}
	if err := t.rebuild(pid, m, mv, n, leafNext(t.scratch)); err != nil {
		return false, err
	}
	if pbuf, err = t.pool.Get(parent.pid); err != nil {
		return false, err
	}
	sep, _ := m.at(mv)
	setIntKey(pbuf, parent.pos-1, sep)
	return true, t.pool.MarkDirty(parent.pid)
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
