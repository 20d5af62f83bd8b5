package storage

import (
	"errors"
	"fmt"

	"pdl/internal/buffer"
	"pdl/internal/ftl"
)

// RID identifies a record: the logical page holding it and its slot.
type RID struct {
	Page uint32
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("rid(%d,%d)", r.Page, r.Slot) }

// Heap is a heap file over a contiguous range of logical pages accessed
// through a shared buffer pool. Several heaps (tables) partition one
// database's page space. Durability is the pool's: flushing the shared
// pool reflects every heap's dirty pages as one pid-ordered write batch.
type Heap struct {
	pool     *buffer.Pool
	first    uint32 // first logical page of the range
	numPages uint32
	pageSize int

	// nextInsert remembers where the last insert landed, giving O(1)
	// appends for bulk loads.
	nextInsert uint32
	scratch    []byte
}

// NewHeap builds a heap over pages [first, first+numPages).
func NewHeap(pool *buffer.Pool, first, numPages uint32) (*Heap, error) {
	if numPages == 0 {
		return nil, fmt.Errorf("storage: heap needs at least one page")
	}
	return &Heap{
		pool:     pool,
		first:    first,
		numPages: numPages,
		pageSize: pool.PageSize(),
		scratch:  make([]byte, pool.PageSize()),
	}, nil
}

// NumPages returns the number of pages in the heap's range.
func (h *Heap) NumPages() uint32 { return h.numPages }

// MaxRecordSize returns the largest insertable record.
func (h *Heap) MaxRecordSize() int { return h.pageSize - pageHdrSize - slotSize }

// InsertHint returns the page index (relative to the heap's range) where
// the last insert landed. Persisting it across a restart and restoring it
// with SetInsertHint keeps post-reopen inserts O(1) instead of re-probing
// the full pages at the front of the range; it is purely a performance
// hint and never affects contents.
func (h *Heap) InsertHint() uint32 { return h.nextInsert }

// SetInsertHint restores a persisted insert position. Out-of-range values
// are clamped into the heap.
func (h *Heap) SetInsertHint(idx uint32) {
	if idx >= h.numPages {
		idx = 0
	}
	h.nextInsert = idx
}

// frame fetches the page'th page of the heap as a slotted page, faulting
// it in from flash, or creating a fresh zeroed page if it has never been
// written.
func (h *Heap) frame(pageIdx uint32) (page, error) {
	pid := h.first + pageIdx
	buf, err := h.pool.Get(pid)
	if errors.Is(err, ftl.ErrNotWritten) {
		buf, err = h.pool.GetNew(pid)
	}
	if err != nil {
		return page{}, err
	}
	return asPage(buf), nil
}

// Insert places rec into the heap, returning its record id.
func (h *Heap) Insert(rec []byte) (RID, error) {
	if len(rec) > h.MaxRecordSize() {
		return RID{}, fmt.Errorf("%w: %d bytes, max %d", ErrRecordTooLarge, len(rec), h.MaxRecordSize())
	}
	for tries := uint32(0); tries < h.numPages; tries++ {
		idx := (h.nextInsert + tries) % h.numPages
		p, err := h.frame(idx)
		if err != nil {
			return RID{}, err
		}
		slot := p.insert(rec)
		if slot < 0 {
			continue
		}
		if err := h.pool.MarkDirty(h.first + idx); err != nil {
			return RID{}, err
		}
		h.nextInsert = idx
		return RID{Page: h.first + idx, Slot: uint16(slot)}, nil
	}
	return RID{}, ErrNoSpace
}

// checkRID validates that rid names a page of this heap.
func (h *Heap) checkRID(rid RID) error {
	if rid.Page < h.first || rid.Page >= h.first+h.numPages {
		return fmt.Errorf("%w: page %d outside heap [%d,%d)", ErrInvalidRID,
			rid.Page, h.first, h.first+h.numPages)
	}
	return nil
}

// Get copies the record rid into out, returning the record bytes
// (a sub-slice of out when out has room, else a fresh allocation).
func (h *Heap) Get(rid RID, out []byte) ([]byte, error) {
	if err := h.checkRID(rid); err != nil {
		return nil, err
	}
	p, err := h.frame(rid.Page - h.first)
	if err != nil {
		return nil, err
	}
	rec, err := p.get(int(rid.Slot))
	if err != nil {
		return nil, fmt.Errorf("%v: %w", rid, err)
	}
	if cap(out) < len(rec) {
		out = make([]byte, len(rec))
	}
	out = out[:len(rec)]
	copy(out, rec)
	return out, nil
}

// Update overwrites record rid with rec. Same-size updates are in-place;
// size changes must still fit the page (after compaction if needed).
func (h *Heap) Update(rid RID, rec []byte) error {
	if err := h.checkRID(rid); err != nil {
		return err
	}
	if len(rec) > h.MaxRecordSize() {
		return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	p, err := h.frame(rid.Page - h.first)
	if err != nil {
		return err
	}
	ok, err := p.update(int(rid.Slot), rec, h.scratch)
	if err != nil {
		return fmt.Errorf("%v: %w", rid, err)
	}
	if !ok {
		return fmt.Errorf("%w: update of %v to %d bytes", ErrNoSpace, rid, len(rec))
	}
	return h.pool.MarkDirty(rid.Page)
}

// Delete removes record rid.
func (h *Heap) Delete(rid RID) error {
	if err := h.checkRID(rid); err != nil {
		return err
	}
	p, err := h.frame(rid.Page - h.first)
	if err != nil {
		return err
	}
	if err := p.del(int(rid.Slot)); err != nil {
		return fmt.Errorf("%v: %w", rid, err)
	}
	return h.pool.MarkDirty(rid.Page)
}

// Flush writes dirty pages and method buffers through to flash.
func (h *Heap) Flush() error { return h.pool.Flush() }
