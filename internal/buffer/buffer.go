// Package buffer implements an LRU buffer pool over a flash page-update
// method, playing the role of the DBMS buffer in the paper's architecture
// (Figure 10). Experiment 7 varies this pool's size from 0.1% to 10% of the
// database; the other experiments bypass buffering entirely, which the
// paper arranges by designing the update operation as read-change-write.
package buffer

import (
	"container/list"
	"errors"
	"fmt"
	"sort"

	"pdl/internal/ftl"
)

// ErrClosed reports use of a closed pool.
var ErrClosed = errors.New("buffer: pool is closed")

// frame is one cached logical page.
type frame struct {
	pid   uint32
	data  []byte
	dirty bool
	elem  *list.Element
}

// Pool is a fixed-capacity LRU buffer pool. Dirty pages are written back
// through the underlying method on eviction and on Flush. Write-back is
// batch-first: dirty frames are collected in ascending pid order — so the
// device sees a deterministic, reproducible write pattern — and handed to
// the method as one WriteBatch when it implements ftl.BatchWriter (the PDL
// store), falling back to per-page WritePage calls in the same pid order
// otherwise.
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
	breader  ftl.BatchReader  // method, if it accepts read batches; nil otherwise
	retainer ftl.BaseRetainer // method, if it takes the first-dirty hint; nil otherwise
	capacity int
	frames   map[uint32]*frame
	lru      *list.List // front = most recently used
	// spare holds the frames, with their page buffers, of faults whose read
	// failed, for the next misses.
	spare    []*frame
	pageSize int
	// evictionBatch is how many dirty frames one dirty eviction may write
	// back together (write-back clustering); see Options.
	evictionBatch int
	// readahead is the speculative prefetch window storage layers may use
	// (0 = off); see Options.
	readahead int
	closed    bool

	hits, misses, evictions, writebacks, readaheads int64
}

// Options tunes a pool beyond its capacity.
type Options struct {
	// EvictionBatch enables write-back clustering under eviction pressure:
	// when the pool must evict a dirty victim, up to EvictionBatch dirty
	// frames from the cold (LRU) end — the victim included — are written
	// back together in one pid-ordered batch, and only the victim leaves
	// the pool. The clustered frames stay resident but clean, so the next
	// evictions find clean victims and cost no device work. 0 or 1
	// preserves the classic evict-one-write-one behavior (the default).
	// Clustering never changes page contents, only when a still-resident
	// dirty page is reflected; a page re-dirtied after an early write-back
	// costs one extra reflection, which is why it is opt-in.
	EvictionBatch int
	// Readahead is the speculative prefetch window for storage layers
	// that scan (the B+-tree's Range walks its leaf chain with it): when
	// positive, such layers call Pool.Readahead for up to Readahead pages
	// past their current position, which the pool faults in as one method
	// ReadBatch. 0 (the default) disables readahead, preserving strict
	// demand paging and the paper's read counts. Readahead never evicts
	// more of the pool than the window and never changes results — only
	// when pages are faulted, and in how many device operations.
	Readahead int
}

// NewPool builds a pool of capacity pages over method with default
// options.
func NewPool(method ftl.Method, capacity int) (*Pool, error) {
	return NewPoolOpts(method, capacity, Options{})
}

// NewPoolOpts builds a pool of capacity pages over method.
func NewPoolOpts(method ftl.Method, capacity int, opts Options) (*Pool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("buffer: capacity must be positive, got %d", capacity)
	}
	eb := opts.EvictionBatch
	if eb < 1 {
		eb = 1
	}
	ra := opts.Readahead
	if ra < 0 {
		ra = 0
	}
	p := &Pool{
		method:        method,
		capacity:      capacity,
		frames:        make(map[uint32]*frame, capacity),
		lru:           list.New(),
		pageSize:      method.PageSize(),
		evictionBatch: eb,
		readahead:     ra,
	}
	if bw, ok := method.(ftl.BatchWriter); ok {
		p.batcher = bw
	}
	if br, ok := method.(ftl.BatchReader); ok {
		p.breader = br
	}
	if r, ok := method.(ftl.BaseRetainer); ok {
		p.retainer = r
	}
	return p, nil
}

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Len returns the number of resident pages.
func (p *Pool) Len() int { return len(p.frames) }

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
	// Readaheads counts pages faulted in speculatively by Readahead
	// (misses counts only demand faults).
	Readaheads int64
}

// Stats returns the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions,
		Writebacks: p.writebacks, Readaheads: p.readaheads}
}

// ReadaheadWindow returns the configured speculative prefetch window
// (0 = readahead off); scanning storage layers consult it.
func (p *Pool) ReadaheadWindow() int { return p.readahead }

// Get returns the content of logical page pid, faulting it in on a miss.
// The returned slice aliases the frame; callers that modify it must call
// MarkDirty before the page can be evicted.
func (p *Pool) Get(pid uint32) ([]byte, error) {
	if p.closed {
		return nil, ErrClosed
	}
	if f, ok := p.frames[pid]; ok {
		p.hits++
		p.lru.MoveToFront(f.elem)
		return f.data, nil
	}
	p.misses++
	f, err := p.allocFrame(pid)
	if err != nil {
		return nil, err
	}
	if err := p.method.ReadPage(pid, f.data); err != nil {
		p.dropFrame(f)
		return nil, err
	}
	return f.data, nil
}

// GetMany returns the contents of the given logical pages, faulting all
// misses in together: when the method accepts read batches
// (ftl.BatchReader, the PDL store), every missing page of the call becomes
// one method ReadBatch — one device batch operation instead of one read
// per page — with a per-page ReadPage fallback otherwise. The returned
// slices alias pool frames exactly like Get's; duplicates are allowed and
// alias the same frame. len(pids) must not exceed the pool capacity, so
// every returned frame is resident simultaneously. On error no new pages
// are resident (though eviction write-backs may already have happened).
func (p *Pool) GetMany(pids []uint32) ([][]byte, error) {
	if p.closed {
		return nil, ErrClosed
	}
	if len(pids) > p.capacity {
		return nil, fmt.Errorf("buffer: GetMany of %d pages exceeds pool capacity %d", len(pids), p.capacity)
	}
	out := make([][]byte, len(pids))
	var missPids []uint32
	var missFrames []*frame
	var inflight map[uint32]bool // misses of this call, not yet read
	for i, pid := range pids {
		if f, ok := p.frames[pid]; ok {
			// A duplicate of a miss from this same call aliases the frame
			// but is not a cache hit — the device read is still pending.
			if !inflight[pid] {
				p.hits++
				p.lru.MoveToFront(f.elem)
			}
			out[i] = f.data
			continue
		}
		p.misses++
		f, err := p.allocFrame(pid)
		if err != nil {
			p.dropFrames(missFrames)
			return nil, err
		}
		out[i] = f.data
		missPids = append(missPids, pid)
		missFrames = append(missFrames, f)
		if inflight == nil {
			inflight = make(map[uint32]bool)
		}
		inflight[pid] = true
	}
	if err := p.faultIn(missPids, missFrames); err != nil {
		p.dropFrames(missFrames)
		return nil, err
	}
	return out, nil
}

// Readahead speculatively faults the given pages into the pool (one
// method ReadBatch when available), skipping pages already resident and
// capping the faulted count at half the pool capacity — a speculation
// must never wipe out the resident set it is meant to serve. It returns
// the number of pids covered (resident after the call): a prefix of pids,
// so callers advancing a prefetch window know exactly where the cap
// stopped it (Stats().Readaheads counts the pages actually faulted).
// Unlike Get, resident pages are not promoted in the LRU — a prefetch is
// not a use. Callers must only name pages that have been written; an
// unwritten pid fails the whole call.
func (p *Pool) Readahead(pids []uint32) (int, error) {
	if p.closed {
		return 0, ErrClosed
	}
	limit := p.capacity / 2
	if limit < 1 {
		limit = 1
	}
	covered := 0
	var missPids []uint32
	var missFrames []*frame
	for _, pid := range pids {
		if _, ok := p.frames[pid]; ok {
			covered++
			continue
		}
		if len(missPids) >= limit {
			break
		}
		f, err := p.allocFrame(pid)
		if err != nil {
			p.dropFrames(missFrames)
			return 0, err
		}
		missPids = append(missPids, pid)
		missFrames = append(missFrames, f)
		covered++
	}
	if err := p.faultIn(missPids, missFrames); err != nil {
		p.dropFrames(missFrames)
		return 0, err
	}
	p.readaheads += int64(len(missPids))
	return covered, nil
}

// faultIn reads the given pages into their freshly allocated frames, as
// one method ReadBatch when the method supports it.
func (p *Pool) faultIn(pids []uint32, frames []*frame) error {
	switch {
	case len(pids) == 0:
		return nil
	case p.breader != nil && len(pids) > 1:
		bufs := make([][]byte, len(frames))
		for i, f := range frames {
			bufs[i] = f.data
		}
		return p.breader.ReadBatch(pids, bufs)
	default:
		for i, f := range frames {
			if err := p.method.ReadPage(pids[i], f.data); err != nil {
				return err
			}
		}
		return nil
	}
}

func (p *Pool) dropFrames(frames []*frame) {
	for _, f := range frames {
		p.dropFrame(f)
	}
}

// GetNew returns a zeroed frame for a page being created, without reading
// flash (the page may not exist there yet).
func (p *Pool) GetNew(pid uint32) ([]byte, error) {
	if p.closed {
		return nil, ErrClosed
	}
	if f, ok := p.frames[pid]; ok {
		p.hits++
		p.lru.MoveToFront(f.elem)
		return f.data, nil
	}
	p.misses++
	f, err := p.allocFrame(pid)
	if err != nil {
		return nil, err
	}
	for i := range f.data {
		f.data[i] = 0
	}
	f.dirty = true
	return f.data, nil
}

// MarkDirty records that pid's frame has been modified. The first time a
// clean frame is, a method that takes the hint is told the page will be
// written back (ftl.BaseRetainer); a frame GetNew created is dirty from the
// start and has no previous image to name.
func (p *Pool) MarkDirty(pid uint32) error {
	f, ok := p.frames[pid]
	if !ok {
		return fmt.Errorf("buffer: MarkDirty(%d): page not resident", pid)
	}
	if !f.dirty && p.retainer != nil {
		p.retainer.RetainBase(pid)
	}
	f.dirty = true
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
	for pid, f := range p.frames {
		if f.dirty {
			dirty = append(dirty, pid)
		}
	}
	if err := p.writeBack(dirty); err != nil {
		return err
	}
	return p.method.Flush()
}

// writeBack reflects the given resident frames into the method, sorting
// them into ascending pid order first (the frame map iterates in random
// order; sorted write-back makes the device's write pattern — and every
// test depending on it — reproducible) and marking them clean. It is the
// single funnel both Flush and eviction clustering go through.
func (p *Pool) writeBack(pids []uint32) error {
	if len(pids) == 0 {
		return nil
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	if p.batcher != nil && len(pids) > 1 {
		batch := make([]ftl.PageWrite, len(pids))
		for i, pid := range pids {
			batch[i] = ftl.PageWrite{PID: pid, Data: p.frames[pid].data}
		}
		if err := p.batcher.WriteBatch(batch); err != nil {
			return err
		}
		for _, pid := range pids {
			p.frames[pid].dirty = false
			p.writebacks++
		}
		return nil
	}
	for _, pid := range pids {
		f := p.frames[pid]
		if err := p.method.WritePage(f.pid, f.data); err != nil {
			return err
		}
		p.writebacks++
		f.dirty = false
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

// allocFrame returns a resident frame for pid, evicting the LRU victim if
// the pool is full. A dirty victim is written back first; with
// Options.EvictionBatch > 1 the write-back clusters further dirty frames
// from the cold end of the LRU into the same pid-ordered batch, so the
// evictions that follow find clean victims. The new page takes over the
// victim's frame, page buffer and list element: a miss on a full pool
// allocates nothing. The buffer still holds the victim's bytes; every caller
// overwrites all of it.
func (p *Pool) allocFrame(pid uint32) (*frame, error) {
	if len(p.frames) >= p.capacity {
		victim := p.lru.Back()
		if victim == nil {
			return nil, errors.New("buffer: pool full with no evictable frame")
		}
		vf := victim.Value.(*frame)
		if vf.dirty {
			cluster := []uint32{vf.pid}
			for e := victim.Prev(); e != nil && len(cluster) < p.evictionBatch; e = e.Prev() {
				if f := e.Value.(*frame); f.dirty {
					cluster = append(cluster, f.pid)
				}
			}
			if err := p.writeBack(cluster); err != nil {
				return nil, fmt.Errorf("buffer: evicting pid %d: %w", vf.pid, err)
			}
		}
		p.evictions++
		delete(p.frames, vf.pid)
		vf.pid = pid
		p.lru.MoveToFront(victim)
		p.frames[pid] = vf
		return vf, nil
	}
	var f *frame
	if n := len(p.spare); n > 0 {
		f, p.spare = p.spare[n-1], p.spare[:n-1]
		f.pid = pid
	} else {
		f = &frame{pid: pid, data: make([]byte, p.pageSize)}
	}
	f.elem = p.lru.PushFront(f)
	p.frames[pid] = f
	return f, nil
}

// dropFrame takes f, whose page could not be read, out of the pool and keeps
// it for the next miss.
func (p *Pool) dropFrame(f *frame) {
	p.lru.Remove(f.elem)
	delete(p.frames, f.pid)
	p.spare = append(p.spare, f)
}
