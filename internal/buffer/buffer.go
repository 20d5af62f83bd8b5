// Package buffer implements a buffer pool over a flash page-update method,
// playing the role of the DBMS buffer in the paper's architecture (Figure 10).
// Experiment 7 varies this pool's size from 0.1% to 10% of the database; the
// other experiments bypass buffering entirely, which the paper arranges by
// designing the update operation as read-change-write.
//
// Replacement admits by frequency (W-TinyLFU: Einziger, Friedman and Manes,
// ACM TOS 2017) with a clean-first tail (CFLRU, Park et al.). A page enters a
// window of the most recent arrivals; the rest is the main segment, split into
// probation (pages admitted there, not seen again) and protected (pages seen
// again in probation, at most 80% of the segment, whose coldest page steps
// down to probation when it overflows). On a miss in a full pool the window's
// coldest page, which the newcomer pushes out, competes with probation's
// victim, and the one a count-min sketch of recent accesses counts less is
// evicted: a scan of once-touched pages flows through the window without
// displacing a page used more, and nothing is tuned by hand. The sketch is 16
// counters a row per frame wide, so that a pool that serves ten times as many
// pages as it holds still gives each its own counters, and exists from the
// pool's first eviction on; before it, a page seen again in the window goes to
// protected, as it cannot carry a count. The window sizes itself from then on
// (sizer): a tenth of the frames while the pool hits at least 70% of its
// accesses, up to half of them as the miss ratio rises to 35%, where the pool
// holds too little for frequency to choose and what it still catches is
// reuse soon after a page arrives (TPC-C's appends in Experiment 7's smaller
// buffers). Probation's victim is its coldest clean frame among the
// capacity/4 coldest, because evicting a dirty page costs a program and its
// share of garbage collection where re-reading a clean one costs a read; only
// when those are all dirty is its coldest page written back and evicted.
package buffer

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"pdl/internal/ftl"
)

// ErrClosed reports use of a closed pool.
var ErrClosed = errors.New("buffer: pool is closed")

// The three lists of the directory.
const (
	listWindow    = iota // the most recent arrivals
	listProbation        // admitted to the main segment, not seen again
	listProtected        // seen again
	numLists
)

// The policy's constants.
const (
	sketchWidth      = 16 // a sketch row is the next power of two at least sketchWidth x capacity counters wide
	sketchDecay      = 10 // the sketch halves its counters every sketchDecay x width accesses
	protectedPercent = 80 // protected's share of the main segment, in percent
	// The window is windowLow percent of the capacity after a sample that
	// missed missLow percent of its accesses or less, windowHigh percent after
	// one that missed missHigh percent or more, and in proportion between.
	// Experiment 7's TPC-C misses 33-40% at 0.5-2% buffers, where a window
	// of a quarter of the frames or more serves it best, and 10-23% at
	// 5-10%, where a tenth does; ycsb_a's pools miss about 16%, and a tenth
	// or less suits them.
	windowLow, windowHigh = 10, 50
	missLow, missHigh     = 30, 35
	windowStep            = 5  // the most the window moves after a sample, in percent of the capacity
	samplePeriod          = 10 // a sample is samplePeriod x capacity accesses
)

// node is one directory entry: a frame, a cached logical page. Nodes link
// themselves into their list.
type node struct {
	prev, next *node
	data       []byte
	pid        uint32
	list       uint8
	dirty      bool
}

// list is a ring through root: root.next is the most recently used node,
// root.prev the least.
type list struct {
	root node
	len  int
}

// sketch is TinyLFU's count-min sketch: four rows of width 4-bit counters,
// sixteen to a word, each row indexed by its own hash of the pid. A page's
// count is the least of its four counters, and every counter is halved each
// sketchDecay x width accesses, so that what was popular long ago fades.
type sketch struct {
	table      []uint64 // row r's counter i is nibble r*width+i; nil until the first eviction
	width      uint64   // a power of two
	adds, next int      // accesses since the last halving, and between halvings
}

func newSketch(capacity int) sketch {
	width := uint64(1) << bits.Len(uint(sketchWidth*capacity-1))
	return sketch{table: make([]uint64, width/4), width: width, next: sketchDecay * int(width)}
}

// counters returns the nibble index of pid's counter in each row: the rows
// take 32 bits each of two rounds of MurmurHash3's 64-bit finalizer.
func (s *sketch) counters(pid uint32) (a, b, c, d uint64) {
	h1 := mix(uint64(pid))
	h2 := mix(h1)
	m := s.width - 1
	return h1 & m, s.width + h1>>32&m, 2*s.width + h2&m, 3*s.width + h2>>32&m
}

// mix is MurmurHash3's 64-bit finalizer (fmix64).
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// nibble returns counter i.
func nibble(t []uint64, i uint64) uint64 { return t[i/16] >> (i % 16 * 4) & 15 }

// inc adds one to counter i unless it is at 15.
func inc(t []uint64, i uint64) {
	if nibble(t, i) < 15 {
		t[i/16] += 1 << (i % 16 * 4)
	}
}

// count estimates how often pid was accessed lately, 0..15.
func (s *sketch) count(pid uint32) uint64 {
	a, b, c, d := s.counters(pid)
	t := s.table
	return min(nibble(t, a), nibble(t, b), nibble(t, c), nibble(t, d))
}

// add counts an access to pid, if the sketch has been allocated.
func (s *sketch) add(pid uint32) {
	t := s.table
	if t == nil {
		return
	}
	a, b, c, d := s.counters(pid)
	inc(t, a)
	inc(t, b)
	inc(t, c)
	inc(t, d)
	if s.adds++; s.adds == s.next {
		s.adds = 0
		for i, w := range t {
			t[i] = w >> 1 & 0x7777777777777777
		}
	}
}

// sizer sizes the window from the pool's miss ratio. A pool that misses
// often holds too small a part of the pages it serves for their counts to
// choose among them, and what it still catches is reuse soon after a page
// arrives, which the window serves; a pool that hits often keeps the pages
// frequency chooses, in the main segment. From the pool's first eviction on,
// after every sample of period accesses the window moves at most step frames
// toward the size the sample's miss ratio calls for.
type sizer struct {
	lo, hi, step int // the window's bounds and its largest move, in frames
	period       int // accesses in a sample
	accesses     int // in the current sample
	misses       int // of them
}

func newSizer(capacity int) sizer {
	lo := max(1, capacity*windowLow/100)
	return sizer{
		lo:     lo,
		hi:     max(lo, capacity*windowHigh/100),
		step:   max(1, capacity*windowStep/100),
		period: samplePeriod * capacity,
	}
}

// count records one access and returns the size of a window of w frames after
// it: w unless the access ends a sample.
func (s *sizer) count(miss bool, w int) int {
	if miss {
		s.misses++
	}
	if s.accesses++; s.accesses < s.period {
		return w
	}
	target := s.lo + (s.hi-s.lo)*(100*s.misses-missLow*s.accesses)/((missHigh-missLow)*s.accesses)
	s.accesses, s.misses = 0, 0
	return min(max(target, s.lo, w-s.step), s.hi, w+s.step)
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
	// dir finds every resident page: at most capacity of them.
	dir   map[uint32]*node
	lists [numLists]list
	// windowCap and protectedCap bound the window and protected; size
	// moves windowCap.
	windowCap, protectedCap int
	size                    sizer
	// tail is how many frames from probation's cold end a clean victim is
	// looked for before its coldest page is written back.
	tail int
	// sketch counts the accesses from the pool's first eviction on, which
	// allocates it: a pool that never evicts has no use for it.
	sketch sketch
	// free chains, through next, the nodes no pid owns.
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
		tail:     max(1, capacity/4),
		pageSize: method.PageSize(),
	}
	for i := range p.lists {
		r := &p.lists[i].root
		r.prev, r.next = r, r
	}
	p.size = newSizer(capacity)
	p.resize(p.size.lo)
	if bw, ok := method.(ftl.BatchWriter); ok {
		p.batcher = bw
	}
	if r, ok := method.(ftl.BaseRetainer); ok {
		p.retainer = r
	}
	return p, nil
}

// Len returns the number of resident pages.
func (p *Pool) Len() int { return len(p.dir) }

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
func (p *Pool) frame(pid uint32) *node { return p.dir[pid] }

// Resident reports whether pid's page is in a frame, so that a Get of it
// would not fault and would evict nothing. It counts no use of the page.
func (p *Pool) Resident(pid uint32) bool { return p.frame(pid) != nil }

// hit records a use of the resident frame n. A page seen again in probation,
// or in the window before the sketch counts, moves to the front of protected,
// whose coldest page steps down to probation when that makes protected too
// long; once the sketch counts, a page seen again in the window stays there
// and carries its count into the admission contest.
func (p *Pool) hit(n *node) {
	p.hits++
	p.sketch.add(n.pid)
	p.access(false)
	to := uint8(listProtected)
	if n.list == listWindow && p.sketch.table != nil {
		to = listWindow
	}
	if p.lists[to].root.next == n {
		return
	}
	p.move(n, to)
	if p.lists[listProtected].len > p.protectedCap {
		p.move(p.lists[listProtected].root.prev, listProbation)
	}
}

// access counts a hit or a miss for the sizer once the sketch exists, and
// resizes the window at the end of each sample.
func (p *Pool) access(miss bool) {
	if p.sketch.table == nil {
		return
	}
	if w := p.size.count(miss, p.windowCap); w != p.windowCap {
		p.resize(w)
	}
}

// resize makes the window w frames and the main segment the rest: a window
// over w hands its coldest pages to probation, and so does protected while it
// holds more than its share of the main segment.
func (p *Pool) resize(w int) {
	p.windowCap = w
	p.protectedCap = (p.capacity - w) * protectedPercent / 100
	for l := &p.lists[listWindow]; l.len > w; {
		p.move(l.root.prev, listProbation)
	}
	for l := &p.lists[listProtected]; l.len > p.protectedCap; {
		p.move(l.root.prev, listProbation)
	}
}

// Get returns the content of logical page pid, faulting it in on a miss.
// The returned slice aliases the frame; callers that modify it must call
// MarkDirty before the page can be evicted. It is good until the next call
// that can fault a page (Get, GetNew) and no longer: the policy may choose the
// frame it has just returned as that call's victim (the page a window of one
// frame holds, as a pool of fewer than 20 frames has while it hits 70% of its
// accesses, when the sketch counts it less than probation's victim), so a
// caller working on two pages fetches the first again after fetching the
// second, as btree and storage do, or holds both only once Resident says
// neither Get will fault, as btree's rotations do.
func (p *Pool) Get(pid uint32) ([]byte, error) {
	if p.closed {
		return nil, ErrClosed
	}
	if n := p.frame(pid); n != nil {
		p.hit(n)
		return n.data, nil
	}
	p.misses++
	p.access(true)
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
	p.access(true)
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
	for l := range p.lists {
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

// move puts n at the front of list l.
func (p *Pool) move(n *node, l uint8) {
	p.unlink(n)
	p.pushMRU(n, l)
}

// release takes n out of the directory and keeps the node for a later page.
func (p *Pool) release(n *node) {
	p.unlink(n)
	delete(p.dir, n.pid)
	*n = node{next: p.free}
	p.free = n
}

// coldest returns the frame list l gives up: the coldest clean frame among
// the tail coldest, or else the coldest frame; nil if the list is empty.
func (p *Pool) coldest(l uint8) *node {
	root := &p.lists[l].root
	for n, seen := root.prev, 0; n != root && seen < p.tail; n, seen = n.prev, seen+1 {
		if !n.dirty {
			return n
		}
	}
	if p.lists[l].len == 0 {
		return nil
	}
	return root.prev
}

// victim chooses the frame a miss on a full pool evicts. When the newcomer
// pushes the window's coldest page out, that page, the candidate, competes
// with probation's victim: the candidate is evicted if the sketch counts it
// less, and is otherwise admitted to probation (by allocFrame), the victim
// evicted in its place. Probation is empty only in a pool of one frame.
func (p *Pool) victim() *node {
	w := &p.lists[listWindow]
	v := p.coldest(listProbation)
	if w.len < p.windowCap {
		return v
	}
	if c := w.root.prev; v == nil || p.sketch.count(c.pid) < p.sketch.count(v.pid) {
		return c
	}
	return v
}

// allocFrame makes pid, which is not resident, a resident frame at the front
// of the window and returns it; every caller overwrites all of its page
// buffer, which may hold another page's bytes. On a full pool it evicts the
// frame victim chooses, allocating the sketch the first time. A dirty victim
// is written back first, alone: the dirty frames behind it stay dirty, because
// one re-dirtied after an early write-back costs a second program. The new
// page takes over the victim's node and page buffer: a miss on a full pool
// allocates nothing. A window grown past its bound hands its coldest page to
// probation.
func (p *Pool) allocFrame(pid uint32) (*node, error) {
	var data []byte
	if len(p.dir) >= p.capacity {
		if p.sketch.table == nil {
			p.sketch = newSketch(p.capacity)
		}
		v := p.victim()
		if v.dirty {
			if err := p.writeBack([]uint32{v.pid}); err != nil {
				return nil, fmt.Errorf("buffer: evicting pid %d: %w", v.pid, err)
			}
		}
		p.evictions++
		data = v.data
		p.release(v)
	} else if k := len(p.spare); k > 0 {
		data, p.spare = p.spare[k-1], p.spare[:k-1]
	} else {
		data = make([]byte, p.pageSize)
	}
	p.sketch.add(pid)
	n := p.free
	if n != nil {
		p.free = n.next
	} else {
		n = new(node)
	}
	n.pid, n.data = pid, data
	p.dir[pid] = n
	p.pushMRU(n, listWindow)
	if w := &p.lists[listWindow]; w.len > p.windowCap {
		p.move(w.root.prev, listProbation)
	}
	return n, nil
}

// dropFrame takes n, whose page could not be read, out of the directory and
// keeps its page buffer for the next miss.
func (p *Pool) dropFrame(n *node) {
	p.spare = append(p.spare, n.data)
	p.release(n)
}
