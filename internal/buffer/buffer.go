// Package buffer implements a buffer pool over a flash page-update method,
// playing the role of the DBMS buffer in the paper's architecture (Figure 10).
// Experiment 7 varies this pool's size from 0.1% to 10% of the database; the
// other experiments bypass buffering entirely, which the paper arranges by
// designing the update operation as read-change-write.
//
// Replacement is adaptive (ARC, Megiddo and Modha) with a clean-first tail
// (CFLRU, Park et al.). The directory is four lists: T1 holds the resident
// pages seen once since they entered it, T2 the resident pages seen again, and
// B1 and B2 the page ids (no page buffer) of the pages T1 and T2 evicted last.
// A miss on a pid in B1 says T1 was too short and raises the target size of
// T1; a miss on a pid in B2 lowers it; a miss evicts from T1 when T1 is over
// its target and from T2 otherwise, so a scan of once-touched pages flows
// through T1 and leaves the re-used pages of T2 alone, and nothing is tuned by
// hand. Inside the list ARC evicts from, the victim is the coldest clean frame
// of the tail quarter (a quarter of the capacity), because evicting a dirty
// page costs a program and its share of garbage collection where re-reading a
// clean one costs a read; only when the tail quarter is all dirty is the tail
// page itself written back and evicted.
package buffer

import (
	"errors"
	"fmt"
	"slices"

	"pdl/internal/ftl"
)

// ErrClosed reports use of a closed pool.
var ErrClosed = errors.New("buffer: pool is closed")

// The four lists of the directory. The resident lists come first.
const (
	listT1 = iota // resident, seen once
	listT2        // resident, seen again
	listB1        // ghosts of T1's evictions
	listB2        // ghosts of T2's evictions
	numLists
)

// node is one directory entry: a frame (a cached logical page) while it is on
// T1 or T2, a ghost (data == nil) while it is on B1 or B2. Nodes link
// themselves into their list.
type node struct {
	prev, next *node
	data       []byte
	pid        uint32
	list       uint8
	dirty      bool
}

func (n *node) resident() bool { return n.list <= listT2 }

// list is a ring through root: root.next is the most recently used node,
// root.prev the least.
type list struct {
	root node
	len  int
}

// Pool is a fixed-capacity buffer pool; the package comment describes its
// replacement policy. Dirty pages are written back through the underlying
// method: the victim alone when an eviction finds it dirty, every dirty frame
// at Flush, in ascending pid order — so the device sees a deterministic,
// reproducible write pattern — and as one WriteBatch when the method
// implements ftl.BatchWriter (the PDL store), falling back to per-page
// WritePage calls in the same pid order otherwise. Pages enter one at a time,
// on the miss that asks for them (demand paging; Experiment 7 varies the
// pool's size and nothing else).
//
// When the method keeps previous page images for its writes
// (ftl.BaseRetainer, the PDL store), the pool names each page the moment its
// clean frame is first marked dirty, so that the write-back, an eviction
// away, does not have to read the page's base from flash again.
//
// Pool is not safe for concurrent use; the storage layers in this module
// are single-threaded, like the I/O path of the paper's experiments.
type Pool struct {
	method   ftl.Method
	batcher  ftl.BatchWriter  // method, if it accepts write batches; nil otherwise
	retainer ftl.BaseRetainer // method, if it takes the first-dirty hint; nil otherwise
	capacity int
	// dir finds every pid of the directory, resident or ghost: at most
	// capacity of the first and 2 x capacity in all.
	dir   map[uint32]*node
	lists [numLists]list
	// target is ARC's p, the size T1 is steered towards (0..capacity).
	target int
	// window is how many frames from a list's cold end a clean victim is
	// looked for before the tail page is written back.
	window int
	// free chains, through next, the nodes no pid owns. The ghosts' nodes are
	// allocated together, by the pool's first eviction.
	free *node
	// spare holds the page buffers of faults whose read failed, for the next
	// misses.
	spare    [][]byte
	pageSize int
	closed   bool

	hits, misses, evictions, writebacks int64
}

// NewPool builds a pool of capacity pages over method.
func NewPool(method ftl.Method, capacity int) (*Pool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("buffer: capacity must be positive, got %d", capacity)
	}
	p := &Pool{
		method:   method,
		capacity: capacity,
		dir:      make(map[uint32]*node, capacity),
		window:   max(1, capacity/4),
		pageSize: method.PageSize(),
	}
	for i := range p.lists {
		r := &p.lists[i].root
		r.prev, r.next = r, r
	}
	if bw, ok := method.(ftl.BatchWriter); ok {
		p.batcher = bw
	}
	if r, ok := method.(ftl.BaseRetainer); ok {
		p.retainer = r
	}
	return p, nil
}

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Len returns the number of resident pages.
func (p *Pool) Len() int { return p.lists[listT1].len + p.lists[listT2].len }

// PageSize returns the logical page size.
func (p *Pool) PageSize() int { return p.pageSize }

// Method returns the underlying page-update method.
func (p *Pool) Method() ftl.Method { return p.method }

// Stats describes pool effectiveness.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// Stats returns the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions, Writebacks: p.writebacks}
}

// frame returns pid's resident frame, or nil.
func (p *Pool) frame(pid uint32) *node {
	if n := p.dir[pid]; n != nil && n.resident() {
		return n
	}
	return nil
}

// hit records a use of the resident frame n: it has now been seen again.
func (p *Pool) hit(n *node) {
	p.hits++
	if p.lists[listT2].root.next != n {
		p.unlink(n)
		p.pushMRU(n, listT2)
	}
}

// Get returns the content of logical page pid, faulting it in on a miss.
// The returned slice aliases the frame; callers that modify it must call
// MarkDirty before the page can be evicted. It is good until the next call
// that can fault a page (Get, GetNew) and no longer: the policy may choose the
// frame it has just returned as that call's victim (a once-seen page while
// T1's target is 0), so a caller working on two pages fetches the first again
// after fetching the second, as btree and storage do.
func (p *Pool) Get(pid uint32) ([]byte, error) {
	if p.closed {
		return nil, ErrClosed
	}
	if n := p.frame(pid); n != nil {
		p.hit(n)
		return n.data, nil
	}
	p.misses++
	n, err := p.allocFrame(pid)
	if err != nil {
		return nil, err
	}
	if err := p.method.ReadPage(pid, n.data); err != nil {
		p.dropFrame(n)
		return nil, err
	}
	return n.data, nil
}

// GetNew returns a zeroed frame for a page being created, without reading
// flash (the page may not exist there yet).
func (p *Pool) GetNew(pid uint32) ([]byte, error) {
	if p.closed {
		return nil, ErrClosed
	}
	if n := p.frame(pid); n != nil {
		p.hit(n)
		return n.data, nil
	}
	p.misses++
	n, err := p.allocFrame(pid)
	if err != nil {
		return nil, err
	}
	clear(n.data)
	n.dirty = true
	return n.data, nil
}

// MarkDirty records that pid's frame has been modified. The first time a
// clean frame is, a method that takes the hint is told the page will be
// written back (ftl.BaseRetainer); a frame GetNew created is dirty from the
// start and has no previous image to name.
func (p *Pool) MarkDirty(pid uint32) error {
	n := p.frame(pid)
	if n == nil {
		return fmt.Errorf("buffer: MarkDirty(%d): page not resident", pid)
	}
	if !n.dirty && p.retainer != nil {
		p.retainer.RetainBase(pid)
	}
	n.dirty = true
	return nil
}

// Flush writes back every dirty frame — in ascending pid order, as one
// method WriteBatch when available — and then flushes the method's own
// buffers (the write-through chain of section 4.5).
func (p *Pool) Flush() error {
	if p.closed {
		return ErrClosed
	}
	var dirty []uint32
	for l := listT1; l <= listT2; l++ {
		root := &p.lists[l].root
		for n := root.next; n != root; n = n.next {
			if n.dirty {
				dirty = append(dirty, n.pid)
			}
		}
	}
	if err := p.writeBack(dirty); err != nil {
		return err
	}
	return p.method.Flush()
}

// writeBack reflects the given resident frames into the method, sorting
// them into ascending pid order first (sorted write-back makes the device's
// write pattern — and every test depending on it — reproducible) and marking
// them clean. It is the single funnel both Flush and eviction go through.
func (p *Pool) writeBack(pids []uint32) error {
	if len(pids) == 0 {
		return nil
	}
	slices.Sort(pids)
	if p.batcher != nil && len(pids) > 1 {
		batch := make([]ftl.PageWrite, len(pids))
		for i, pid := range pids {
			batch[i] = ftl.PageWrite{PID: pid, Data: p.dir[pid].data}
		}
		if err := p.batcher.WriteBatch(batch); err != nil {
			return err
		}
		for _, pid := range pids {
			p.dir[pid].dirty = false
			p.writebacks++
		}
		return nil
	}
	for _, pid := range pids {
		n := p.dir[pid]
		if err := p.method.WritePage(pid, n.data); err != nil {
			return err
		}
		p.writebacks++
		n.dirty = false
	}
	return nil
}

// Close flushes and invalidates the pool.
func (p *Pool) Close() error {
	if p.closed {
		return nil
	}
	if err := p.Flush(); err != nil {
		return err
	}
	p.closed = true
	return nil
}

func (p *Pool) unlink(n *node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	p.lists[n.list].len--
}

func (p *Pool) pushMRU(n *node, l uint8) {
	root := &p.lists[l].root
	n.list = l
	n.prev, n.next = root, root.next
	root.next.prev = n
	root.next = n
	p.lists[l].len++
}

// release takes n out of the directory and keeps the node for a later page.
func (p *Pool) release(n *node) {
	p.unlink(n)
	delete(p.dir, n.pid)
	*n = node{next: p.free}
	p.free = n
}

// forget releases the least recently used ghost of list l.
func (p *Pool) forget(l uint8) { p.release(p.lists[l].root.prev) }

// victim chooses the frame list l gives up: the coldest clean frame among the
// window coldest, or else the coldest frame; nil if the list is empty.
func (p *Pool) victim(l uint8) *node {
	root := &p.lists[l].root
	for n, seen := root.prev, 0; n != root && seen < p.window; n, seen = n.prev, seen+1 {
		if !n.dirty {
			return n
		}
	}
	if p.lists[l].len == 0 {
		return nil
	}
	return root.prev
}

// allocFrame makes pid, which is not resident, a resident frame and returns
// it; every caller overwrites all of its page buffer, which may hold another
// page's bytes. On a full pool it evicts: from T1 if T1 is over its target and
// from T2 otherwise (ARC's REPLACE), the frame victim chooses there. A dirty
// victim is written back first, alone: the dirty frames behind it stay dirty,
// because one re-dirtied after an early write-back costs a second program.
// The victim's node stays behind as a ghost and the new page takes over its
// page buffer, in its own ghost's node when it has one: a miss on a full pool
// allocates nothing.
func (p *Pool) allocFrame(pid uint32) (*node, error) {
	c := p.capacity
	t1, b1 := p.lists[listT1].len, p.lists[listB1].len
	t2, b2 := p.lists[listT2].len, p.lists[listB2].len
	n := p.dir[pid] // a ghost, or nil
	to, wasB2 := uint8(listT1), false
	if n != nil {
		// The page was evicted too early: by T1 if its ghost is in B1, and
		// T1's target grows; by T2 otherwise, and it shrinks.
		to = listT2
		if n.list == listB1 {
			p.target = min(c, p.target+max(1, b2/b1))
		} else {
			p.target = max(0, p.target-max(1, b1/b2))
			wasB2 = true
		}
	}
	var v *node
	if t1+t2 >= c {
		from := uint8(listT2)
		if t1 > 0 && (t1 > p.target || (wasB2 && t1 == p.target)) {
			from = listT1
		}
		if v = p.victim(from); v == nil {
			// T2 is empty: once-seen pages fill the pool and T1's target is the
			// whole of it (ARC deletes the LRU page of T1 here, as its own case).
			v = p.victim(listT1)
		}
		if v.dirty {
			if err := p.writeBack([]uint32{v.pid}); err != nil {
				return nil, fmt.Errorf("buffer: evicting pid %d: %w", v.pid, err)
			}
		}
		if p.evictions == 0 {
			// From here on the directory grows to 2c pids: the ghosts' nodes,
			// in one piece.
			ghosts := make([]node, c)
			for i := range ghosts {
				ghosts[i].next, p.free = p.free, &ghosts[i]
			}
		}
		p.evictions++
	}
	// The directory keeps at most c pids in T1 and B1 together and 2c in all.
	keepGhost := true
	if n == nil {
		switch {
		case t1+b1 >= c && b1 > 0:
			p.forget(listB1)
		case t1+b1 >= c:
			keepGhost = false // T1 alone fills the pool, so v is of T1
		case t1+t2+b1+b2 >= 2*c:
			p.forget(listB2)
		}
	}
	var data []byte
	if v != nil {
		data, v.data = v.data, nil
		if keepGhost {
			p.unlink(v)
			p.pushMRU(v, v.list+listB1)
		} else {
			p.release(v)
		}
	} else if k := len(p.spare); k > 0 {
		data, p.spare = p.spare[k-1], p.spare[:k-1]
	} else {
		data = make([]byte, p.pageSize)
	}
	if n != nil {
		p.unlink(n)
	} else {
		if n = p.free; n != nil {
			p.free = n.next
		} else {
			n = new(node)
		}
		n.pid = pid
		p.dir[pid] = n
	}
	n.data = data
	p.pushMRU(n, to)
	return n, nil
}

// dropFrame takes n, whose page could not be read, out of the directory and
// keeps its page buffer for the next miss.
func (p *Pool) dropFrame(n *node) {
	p.spare = append(p.spare, n.data)
	p.release(n)
}
