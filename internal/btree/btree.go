// Package btree implements a B+-tree index over the buffer pool, with
// uint64 keys and uint64 values (callers typically encode a storage.RID).
//
// The tree exercises the page-access pattern the paper's motivation cites
// (Wu et al., "An Efficient B-Tree Layer for Flash-Memory Storage Systems"
// [25]): small in-place modifications of index pages, the workload on which
// page-differential logging's writing-difference-only principle pays off
// most. Inserts split full nodes; deletes are lazy (keys are removed but
// nodes are not rebalanced), which is sufficient for the index workloads in
// this module and keeps the page format simple.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pdl/internal/buffer"
	"pdl/internal/ftl"
)

// Errors returned by the tree.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("btree: key not found")
	// ErrNoSpace reports that the tree's page range is exhausted.
	ErrNoSpace = errors.New("btree: page range exhausted")
	// ErrDuplicate reports an insert of an existing key.
	ErrDuplicate = errors.New("btree: duplicate key")
)

// Node page layout within a logical page:
//
//	[0]    node type: 1 = leaf, 2 = internal
//	[1:3]  key count n
//	[3:7]  leaf: next-leaf page id (0xFFFFFFFF = none); internal: unused
//	[7:..] leaf:      n x (key u64, value u64)
//	       internal:  child0 u32, then n x (key u64, child u32)
//
// An internal node routes key k to child i where i is the first entry with
// k < keys[i], else the last child.
const (
	nodeHdrSize   = 7
	typeLeaf      = 1
	typeInternal  = 2
	leafEntrySize = 16
	intEntrySize  = 12
	noPage        = 0xFFFFFFFF
)

// Tree is a B+-tree occupying logical pages [first, first+numPages) of a
// buffer pool.
type Tree struct {
	pool  *buffer.Pool
	first uint32
	num   uint32

	pageSize int
	leafCap  int // max entries per leaf
	intCap   int // max keys per internal node

	root      uint32
	nextAlloc uint32 // bump allocator within the range
	height    int
	size      int

	leaf []byte // Range's copy of the leaf it is walking
}

// New builds an empty tree over pages [first, first+numPages).
func New(pool *buffer.Pool, first, numPages uint32) (*Tree, error) {
	if numPages < 1 {
		return nil, fmt.Errorf("btree: need at least one page")
	}
	ps := pool.PageSize()
	t := &Tree{
		pool:     pool,
		first:    first,
		num:      numPages,
		pageSize: ps,
		leafCap:  (ps - nodeHdrSize) / leafEntrySize,
		intCap:   (ps - nodeHdrSize - 4) / intEntrySize,
	}
	if t.leafCap < 2 || t.intCap < 2 {
		return nil, fmt.Errorf("btree: page size %d too small", ps)
	}
	rootPID, err := t.alloc()
	if err != nil {
		return nil, err
	}
	buf, err := t.frame(rootPID)
	if err != nil {
		return nil, err
	}
	initNode(buf, typeLeaf)
	if err := t.pool.MarkDirty(rootPID); err != nil {
		return nil, err
	}
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
	if numPages < 1 {
		return nil, fmt.Errorf("btree: need at least one page")
	}
	ps := pool.PageSize()
	t := &Tree{
		pool:     pool,
		first:    first,
		num:      numPages,
		pageSize: ps,
		leafCap:  (ps - nodeHdrSize) / leafEntrySize,
		intCap:   (ps - nodeHdrSize - 4) / intEntrySize,
	}
	if t.leafCap < 2 || t.intCap < 2 {
		return nil, fmt.Errorf("btree: page size %d too small", ps)
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

func (t *Tree) alloc() (uint32, error) {
	if t.nextAlloc >= t.num {
		return 0, ErrNoSpace
	}
	pid := t.first + t.nextAlloc
	t.nextAlloc++
	return pid, nil
}

func (t *Tree) frame(pid uint32) ([]byte, error) {
	buf, err := t.pool.Get(pid)
	if errors.Is(err, ftl.ErrNotWritten) {
		buf, err = t.pool.GetNew(pid)
	}
	return buf, err
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
func leafNext(buf []byte) uint32 { return binary.LittleEndian.Uint32(buf[3:]) }
func setLeafNext(buf []byte, p uint32) {
	binary.LittleEndian.PutUint32(buf[3:], p)
}

func leafKey(buf []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[nodeHdrSize+i*leafEntrySize:])
}
func leafVal(buf []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[nodeHdrSize+i*leafEntrySize+8:])
}
func setLeafEntry(buf []byte, i int, k, v uint64) {
	binary.LittleEndian.PutUint64(buf[nodeHdrSize+i*leafEntrySize:], k)
	binary.LittleEndian.PutUint64(buf[nodeHdrSize+i*leafEntrySize+8:], v)
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
func intChild(buf []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(buf[nodeHdrSize+4+i*intEntrySize+8:])
}
func setIntEntry(buf []byte, i int, k uint64, c uint32) {
	binary.LittleEndian.PutUint64(buf[nodeHdrSize+4+i*intEntrySize:], k)
	binary.LittleEndian.PutUint32(buf[nodeHdrSize+4+i*intEntrySize+8:], c)
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

// intRoute returns the child page to follow for key k.
func intRoute(buf []byte, k uint64) uint32 {
	n := nodeN(buf)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if intKey(buf, mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return intChild0(buf)
	}
	return intChild(buf, lo-1)
}

// Get returns the value stored under k.
func (t *Tree) Get(k uint64) (uint64, error) {
	pid := t.root
	for {
		buf, err := t.frame(pid)
		if err != nil {
			return 0, err
		}
		if nodeType(buf) == typeInternal {
			pid = intRoute(buf, k)
			continue
		}
		i := leafSearch(buf, k)
		if i < nodeN(buf) && leafKey(buf, i) == k {
			return leafVal(buf, i), nil
		}
		return 0, fmt.Errorf("%w: %d", ErrNotFound, k)
	}
}

// Insert stores v under k, failing on duplicates.
func (t *Tree) Insert(k, v uint64) error {
	promoted, newChild, err := t.insertAt(t.root, k, v)
	if err != nil {
		return err
	}
	if newChild == noPage {
		t.size++
		return nil
	}
	// Root split: build a new internal root.
	rootPID, err := t.alloc()
	if err != nil {
		return err
	}
	buf, err := t.frame(rootPID)
	if err != nil {
		return err
	}
	initNode(buf, typeInternal)
	setIntChild0(buf, t.root)
	setIntEntry(buf, 0, promoted, newChild)
	setNodeN(buf, 1)
	if err := t.pool.MarkDirty(rootPID); err != nil {
		return err
	}
	t.root = rootPID
	t.height++
	t.size++
	return nil
}

// insertAt inserts into the subtree rooted at pid. If the node split, it
// returns the promoted key and the new right sibling's page id; otherwise
// newChild is noPage.
func (t *Tree) insertAt(pid uint32, k, v uint64) (promoted uint64, newChild uint32, err error) {
	buf, err := t.frame(pid)
	if err != nil {
		return 0, noPage, err
	}
	if nodeType(buf) == typeLeaf {
		return t.insertLeaf(pid, k, v)
	}
	child := intRoute(buf, k)
	pk, pc, err := t.insertAt(child, k, v)
	if err != nil || pc == noPage {
		return 0, noPage, err
	}
	// Child split: insert (pk, pc) into this internal node. Re-fetch the
	// frame: the recursive call may have evicted it.
	buf, err = t.frame(pid)
	if err != nil {
		return 0, noPage, err
	}
	n := nodeN(buf)
	pos := 0
	for pos < n && intKey(buf, pos) <= pk {
		pos++
	}
	if n < t.intCap {
		for i := n; i > pos; i-- {
			setIntEntry(buf, i, intKey(buf, i-1), intChild(buf, i-1))
		}
		setIntEntry(buf, pos, pk, pc)
		setNodeN(buf, n+1)
		return 0, noPage, t.pool.MarkDirty(pid)
	}
	return t.splitInternal(pid, buf, pos, pk, pc)
}

// insertLeaf inserts into a leaf, splitting if full.
func (t *Tree) insertLeaf(pid uint32, k, v uint64) (uint64, uint32, error) {
	buf, err := t.frame(pid)
	if err != nil {
		return 0, noPage, err
	}
	n := nodeN(buf)
	i := leafSearch(buf, k)
	if i < n && leafKey(buf, i) == k {
		return 0, noPage, fmt.Errorf("%w: %d", ErrDuplicate, k)
	}
	if n < t.leafCap {
		for j := n; j > i; j-- {
			setLeafEntry(buf, j, leafKey(buf, j-1), leafVal(buf, j-1))
		}
		setLeafEntry(buf, i, k, v)
		setNodeN(buf, n+1)
		return 0, noPage, t.pool.MarkDirty(pid)
	}
	// Split: right sibling takes the upper half.
	rightPID, err := t.alloc()
	if err != nil {
		return 0, noPage, err
	}
	// Stage entries including the new one.
	keys := make([]uint64, 0, n+1)
	vals := make([]uint64, 0, n+1)
	for j := 0; j < n; j++ {
		keys = append(keys, leafKey(buf, j))
		vals = append(vals, leafVal(buf, j))
	}
	keys = append(keys[:i], append([]uint64{k}, keys[i:]...)...)
	vals = append(vals[:i], append([]uint64{v}, vals[i:]...)...)
	mid := (n + 1) / 2
	oldNext := leafNext(buf)

	rbuf, err := t.frame(rightPID)
	if err != nil {
		return 0, noPage, err
	}
	initNode(rbuf, typeLeaf)
	for j := mid; j < len(keys); j++ {
		setLeafEntry(rbuf, j-mid, keys[j], vals[j])
	}
	setNodeN(rbuf, len(keys)-mid)
	setLeafNext(rbuf, oldNext)
	if err := t.pool.MarkDirty(rightPID); err != nil {
		return 0, noPage, err
	}
	// Re-fetch the left frame (the right-frame fetch may have evicted it).
	buf, err = t.frame(pid)
	if err != nil {
		return 0, noPage, err
	}
	for j := 0; j < mid; j++ {
		setLeafEntry(buf, j, keys[j], vals[j])
	}
	setNodeN(buf, mid)
	setLeafNext(buf, rightPID)
	if err := t.pool.MarkDirty(pid); err != nil {
		return 0, noPage, err
	}
	return keys[mid], rightPID, nil
}

// splitInternal splits a full internal node that needs (pk, pc) at pos.
func (t *Tree) splitInternal(pid uint32, buf []byte, pos int, pk uint64, pc uint32) (uint64, uint32, error) {
	n := nodeN(buf)
	keys := make([]uint64, 0, n+1)
	children := make([]uint32, 0, n+2)
	children = append(children, intChild0(buf))
	for j := 0; j < n; j++ {
		keys = append(keys, intKey(buf, j))
		children = append(children, intChild(buf, j))
	}
	keys = append(keys[:pos], append([]uint64{pk}, keys[pos:]...)...)
	children = append(children[:pos+1], append([]uint32{pc}, children[pos+1:]...)...)

	mid := len(keys) / 2
	promote := keys[mid]

	rightPID, err := t.alloc()
	if err != nil {
		return 0, noPage, err
	}
	rbuf, err := t.frame(rightPID)
	if err != nil {
		return 0, noPage, err
	}
	initNode(rbuf, typeInternal)
	setIntChild0(rbuf, children[mid+1])
	for j := mid + 1; j < len(keys); j++ {
		setIntEntry(rbuf, j-mid-1, keys[j], children[j+1])
	}
	setNodeN(rbuf, len(keys)-mid-1)
	if err := t.pool.MarkDirty(rightPID); err != nil {
		return 0, noPage, err
	}
	buf, err = t.frame(pid)
	if err != nil {
		return 0, noPage, err
	}
	setIntChild0(buf, children[0])
	for j := 0; j < mid; j++ {
		setIntEntry(buf, j, keys[j], children[j+1])
	}
	setNodeN(buf, mid)
	if err := t.pool.MarkDirty(pid); err != nil {
		return 0, noPage, err
	}
	return promote, rightPID, nil
}

// Update replaces the value under an existing key.
func (t *Tree) Update(k, v uint64) error {
	pid := t.root
	for {
		buf, err := t.frame(pid)
		if err != nil {
			return err
		}
		if nodeType(buf) == typeInternal {
			pid = intRoute(buf, k)
			continue
		}
		i := leafSearch(buf, k)
		if i < nodeN(buf) && leafKey(buf, i) == k {
			setLeafEntry(buf, i, k, v)
			return t.pool.MarkDirty(pid)
		}
		return fmt.Errorf("%w: %d", ErrNotFound, k)
	}
}

// Delete removes k (lazily: no rebalancing).
func (t *Tree) Delete(k uint64) error {
	pid := t.root
	for {
		buf, err := t.frame(pid)
		if err != nil {
			return err
		}
		if nodeType(buf) == typeInternal {
			pid = intRoute(buf, k)
			continue
		}
		n := nodeN(buf)
		i := leafSearch(buf, k)
		if i >= n || leafKey(buf, i) != k {
			return fmt.Errorf("%w: %d", ErrNotFound, k)
		}
		for j := i; j < n-1; j++ {
			setLeafEntry(buf, j, leafKey(buf, j+1), leafVal(buf, j+1))
		}
		setNodeN(buf, n-1)
		t.size--
		return t.pool.MarkDirty(pid)
	}
}

// Range calls fn for every (k, v) with lo <= k <= hi in ascending order,
// stopping early if fn returns false.
func (t *Tree) Range(lo, hi uint64, fn func(k, v uint64) bool) error {
	// Descend to the leaf containing lo.
	pid := t.root
	for {
		buf, err := t.frame(pid)
		if err != nil {
			return err
		}
		if nodeType(buf) == typeLeaf {
			break
		}
		pid = intRoute(buf, lo)
	}
	for pid != noPage {
		buf, err := t.frame(pid)
		if err != nil {
			return err
		}
		// fn may use the pool (kv reads its heap through it), and a fault
		// there may evict this leaf: walk a copy of it.
		t.leaf = append(t.leaf[:0], buf...)
		buf = t.leaf
		n := nodeN(buf)
		for i := leafSearch(buf, lo); i < n; i++ {
			k := leafKey(buf, i)
			if k > hi {
				return nil
			}
			if !fn(k, leafVal(buf, i)) {
				return nil
			}
		}
		pid = leafNext(buf)
	}
	return nil
}

// Flush writes all dirty index pages through to flash. The pool collects
// them into one pid-ordered write batch, so an index checkpoint costs the
// device a single batched program sequence regardless of how many node
// pages a burst of splits dirtied.
func (t *Tree) Flush() error { return t.pool.Flush() }
