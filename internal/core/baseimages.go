package core

import (
	"sync"
	"sync/atomic"
)

// baseImages keeps the last base page images the read path served, so the
// write that follows a read does not fetch the same page again. The paper's
// update operation is "read the page, change it, write it back", and
// PDL_Writing step 1 (Figure 7) starts by reading the base page the caller
// has just been given: on the driver-level workload that is one flash read
// of the 2.7 an update costs. ReadPage and ReadBatch copy each base image in
// here before they merge the differential onto it; stageWrite asks here
// before it asks flash.
//
// # Coherence
//
// An image is named by (pid, baseTS), the time stamp snapshotted with the
// mapping entry the image was read under, and it is the differential cache's
// rule over again (see diffCache): base time stamps come from the store's one
// monotone counter, garbage collection relocates a base page with its content
// and its stamp, and every new base page — an initial load, a Case 3
// rewrite, a heal — draws a new stamp, so for the life of the store
// (pid, baseTS) names one content wherever in flash it lives. Nothing is ever
// invalidated: a superseded image cannot match a snapshot again and leaves
// when its slot comes round. The writer holds the pid's shard lock, under
// which the base stamp it snapshots cannot move.
//
// # Integrity
//
// Only an image that verified clean under a mapping that stayed stable goes
// in, so what a hit hands the writer is what a verified flash read would have
// (integrity.go says what that gives up: the write no longer re-checks the
// flash copy).
//
// # Memory and cost
//
// The window is a FIFO of n slots, each a page buffer allocated the first
// time the slot is filled: a store that never reads allocates nothing. The
// window and the held region below share one budget with the differential
// cache (see Options.DiffCachePages). A lookup scans the keys from the newest: a
// single update finds its image at once, a batched one within the batch's
// width, and a write nobody read for pays the compares and no flash read more
// than before.
//
// Copying a page on every read is paid by readers that never write (7% of
// ReadPage's own time on the read-only serving workload, and the mutex is one
// more line for concurrent readers to pass around), so reads retain images
// only while the window has served a write, or a hold, within its last two
// laps (two, so that a batch wider than the window is not cut short): idle
// counts the reads since a write or a hold last found its page here, and at 2n
// the window goes dormant, which a read sees in one atomic load and nothing
// else. The window's images stay, and a write or a hold that still finds one
// wakes the window; so does every baseImagesProbe-th that finds none, for two
// laps, which is how a store that turns from serving reads to updating pages
// is noticed.
//
// # Held images
//
// A write-back that comes hundreds of reads after its page was fetched (a
// buffer pool's, at eviction) is beyond any window the store could afford to
// fill from every read. The store cannot tell at fetch time which pages will
// be written; the pool can, one call later, when the page is first dirtied
// (ftl.BaseRetainer): hold moves that page's image, if the window still has
// it, out of the window into the held region, up to maxHeld slots under the
// same names and the same coherence rule. No bytes are copied: the two slots
// swap buffers, so the region grows by one page buffer for each slot it fills
// for the first time and by nothing after. get asks the held region, then the
// window, and a held image it finds is the write-back the hold was for: get
// hands it back to the window the same way, swapping buffers, and frees its
// slot. So the region holds the pages a pool has dirty and nothing else, a
// hold takes a freed slot before the oldest live hold leaves, and a page
// dirtied again soon after its write-back (a Sync's) still finds its image in
// the window: a write that buffers a differential does not change the base.
// put never touches the region. When the window goes dormant the region is
// released, so a store that has turned read-only gives the memory back; no
// other part of the budget takes it (see Options.DiffCachePages).
//
// mu is a leaf lock, never held with any other. All methods are safe on a
// nil receiver (window off).
type baseImages struct {
	// dormant is read by put without mu and written under it.
	dormant atomic.Bool

	mu   sync.Mutex
	win  imageFIFO
	held heldImages
	idle int // puts since a get or a hold last found its image
	// missed counts the gets and holds that found nothing while the window is
	// dormant.
	missed int
}

// imageFIFO is a ring of at most max page images, each named by the pageStamp
// it was read under.
type imageFIFO struct {
	keys []pageStamp // allocated by the first take; keys[i] names imgs[i], the zero key nothing
	imgs [][]byte
	max  int
	next int // the slot the next take hands out: the oldest once the ring is full
}

// find returns the slot of the image named want, or -1.
func (f *imageFIFO) find(want pageStamp) int {
	i := f.next
	for range f.keys { // from the newest back, round the ring
		if i == 0 {
			i = f.max
		}
		i--
		if f.keys[i] == want {
			return i
		}
	}
	return -1
}

// take returns the slot the next image goes into.
func (f *imageFIFO) take() int {
	if f.keys == nil {
		f.keys, f.imgs = make([]pageStamp, f.max), make([][]byte, f.max)
	}
	i := f.next
	if f.next++; f.next == f.max {
		f.next = 0
	}
	return i
}

// heldImages is the held region: up to max page images, each named by the
// pageStamp it was read under, in slots a write-back frees. Every operation
// is O(1): a map names the slots, freed slots wait on a stack, and the live
// slots form a list in hold order, so the oldest hold is the list's head.
type heldImages struct {
	keys []pageStamp // keys[i] names imgs[i], the zero key a free slot
	imgs [][]byte
	slot map[pageStamp]int // the slot of each held image
	free []int             // freed slots, the last freed on top
	// prev and next link the live slots from the oldest hold (head) to the
	// newest (tail); -1 ends the list.
	prev, next []int
	head, tail int
	max        int
}

func newHeldImages(max int) heldImages { return heldImages{head: -1, tail: -1, max: max} }

// find returns the slot of the image named want, or -1.
func (h *heldImages) find(want pageStamp) int {
	if i, ok := h.slot[want]; ok {
		return i
	}
	return -1
}

// take returns the slot the image named key is held in: a freed one, a new
// one while fewer than max exist, else the oldest hold's, which leaves.
func (h *heldImages) take(key pageStamp) int {
	var i int
	switch {
	case len(h.free) > 0:
		i = h.free[len(h.free)-1]
		h.free = h.free[:len(h.free)-1]
	case len(h.keys) < h.max:
		if h.slot == nil {
			h.slot = make(map[pageStamp]int, h.max)
		}
		i = len(h.keys)
		h.keys, h.imgs = append(h.keys, pageStamp{}), append(h.imgs, nil)
		h.prev, h.next = append(h.prev, -1), append(h.next, -1)
	default:
		i = h.head
		h.unlink(i)
		delete(h.slot, h.keys[i])
	}
	h.keys[i], h.slot[key] = key, i
	h.prev[i], h.next[i] = h.tail, -1
	if h.tail >= 0 {
		h.next[h.tail] = i
	} else {
		h.head = i
	}
	h.tail = i
	return i
}

// release frees slot i, whose image has gone back to the window.
func (h *heldImages) release(i int) {
	delete(h.slot, h.keys[i])
	h.keys[i] = pageStamp{}
	h.unlink(i)
	h.free = append(h.free, i)
}

// unlink takes live slot i out of the hold order.
func (h *heldImages) unlink(i int) {
	if p := h.prev[i]; p >= 0 {
		h.next[p] = h.next[i]
	} else {
		h.head = h.next[i]
	}
	if n := h.next[i]; n >= 0 {
		h.prev[n] = h.prev[i]
	} else {
		h.tail = h.prev[i]
	}
}

// baseImagesProbe is the number of writes and holds a dormant window lets miss
// before it retains images again to see whether writes have started to follow
// reads.
const baseImagesProbe = 1024

// newBaseImages returns a window of n images beside a held region of at most
// held, nil (off) for n < 1.
func newBaseImages(n, held int) *baseImages {
	if n < 1 {
		return nil
	}
	return &baseImages{win: imageFIFO{max: n}, held: newHeldImages(held)}
}

// put retains img, the verified base page image of pid stamped ts, unless the
// window is dormant.
func (b *baseImages) put(pid uint32, ts uint64, img []byte) {
	if b == nil || b.dormant.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	i := b.win.take()
	if b.win.imgs[i] == nil {
		b.win.imgs[i] = make([]byte, len(img))
	}
	copy(b.win.imgs[i], img)
	b.win.keys[i] = pageStamp{pid, ts}
	if b.idle++; b.idle >= 2*b.win.max {
		b.dormant.Store(true)
		b.held = newHeldImages(b.held.max)
	}
}

// get copies pid's base image stamped ts into dst if the window or the held
// region has it. A held image goes back to the window, swapping buffers as hold
// does: the write asking is the write-back it was held for.
func (b *baseImages) get(pid uint32, ts uint64, dst []byte) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	want := pageStamp{pid, ts}
	if i := b.held.find(want); i >= 0 {
		copy(dst, b.held.imgs[i])
		j := b.win.take()
		b.win.imgs[j], b.held.imgs[i] = b.held.imgs[i], b.win.imgs[j]
		b.win.keys[j] = want
		b.held.release(i)
	} else if i := b.win.find(want); i >= 0 {
		copy(dst, b.win.imgs[i])
	} else {
		b.miss()
		return false
	}
	b.wake()
	return true
}

// hold moves pid's base image stamped ts from the window into the held
// region, where reads do not push it out, and reports whether the image is
// held now. The two slots swap buffers: the window gets back the buffer of the
// freed slot, or of the held image that left.
func (b *baseImages) hold(pid uint32, ts uint64) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	want := pageStamp{pid, ts}
	// A page held already is a hit; a copy a read has put back in the window
	// stays there.
	if b.held.find(want) < 0 {
		i := b.win.find(want)
		if i < 0 {
			b.miss()
			return false
		}
		j := b.held.take(want)
		b.win.imgs[i], b.held.imgs[j] = b.held.imgs[j], b.win.imgs[i]
		b.win.keys[i] = pageStamp{}
	}
	b.wake()
	return true
}

// miss counts a get or a hold that found nothing toward the next probe. The
// caller holds mu.
func (b *baseImages) miss() {
	if b.dormant.Load() {
		if b.missed++; b.missed == baseImagesProbe {
			b.wake()
		}
	}
}

// wake gives reads two laps to retain images in. The caller holds mu.
func (b *baseImages) wake() {
	b.idle, b.missed = 0, 0
	if b.dormant.Load() { // every hit comes here: leave the line readers load alone
		b.dormant.Store(false)
	}
}

// bytes returns the bytes of the page buffers the window and the held region
// have allocated.
func (b *baseImages) bytes() (n int) {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, imgs := range [][][]byte{b.win.imgs, b.held.imgs} {
		for _, img := range imgs {
			n += len(img)
		}
	}
	return n
}
